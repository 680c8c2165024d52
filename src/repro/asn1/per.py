"""Bit-level primitives for unaligned PER.

:class:`BitWriter` and :class:`BitReader` move whole unsigned integers
of arbitrary bit width in and out of a byte buffer with no alignment,
which is all UPER requires.  Both hold the stream as one Python int
(MSB first), so every primitive is a single shift and mask.  Length
determinants follow X.691 10.9:

* constrained lengths within a range are encoded like a constrained
  integer;
* unconstrained lengths use the general form (single byte < 128,
  two bytes with the top bits ``10`` up to 16K; fragmentation beyond
  16K is not needed for ITS messages and raises).
"""

from __future__ import annotations


class Asn1Error(ValueError):
    """Raised on malformed values or truncated encodings."""


class BitWriter:
    """Accumulates an unaligned bit stream, MSB first.

    The bits written so far are the low :attr:`bit_length` bits of one
    int accumulator.
    """

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def __len__(self) -> int:
        return self._nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._acc = (self._acc << 1) | (1 if bit else 0)
        self._nbits += 1

    def write_uint(self, value: int, width: int) -> None:
        """Append *value* as an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        if value < 0 or value >> width:
            raise Asn1Error(f"value {value} does not fit in {width} bits")
        # int() keeps a numpy integer from turning the accumulator into
        # a fixed-width scalar.
        self._acc = (self._acc << width) | int(value)
        self._nbits += width

    def write_bytes(self, data: bytes) -> None:
        """Append raw octets, unaligned."""
        width = 8 * len(data)
        self._acc = (self._acc << width) | int.from_bytes(data, "big")
        self._nbits += width

    def write_length(self, length: int) -> None:
        """Append an unconstrained length determinant (X.691 10.9.3)."""
        if length < 0:
            raise Asn1Error(f"negative length {length}")
        if length < 128:
            self.write_uint(length, 8)
        elif length < 16384:
            self.write_uint(0b10, 2)
            self.write_uint(length, 14)
        else:
            raise Asn1Error(
                f"length {length} requires fragmentation (unsupported)"
            )

    def to_bytes(self) -> bytes:
        """The stream padded with zero bits to a whole number of octets."""
        pad = -self._nbits % 8
        return (self._acc << pad).to_bytes((self._nbits + pad) // 8, "big")

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits


class BitReader:
    """Consumes an unaligned bit stream produced by :class:`BitWriter`.

    The buffer is converted to one int up front; a read of *width* bits
    at offset *pos* is the shift ``limit - pos - width`` and a mask.
    """

    def __init__(self, data: bytes):
        self._value = int.from_bytes(data, "big")
        self._pos = 0
        self._limit = len(data) * 8

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left in the buffer (including any final padding)."""
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read one bit."""
        if self._pos >= self._limit:
            raise Asn1Error("bit stream exhausted")
        self._pos += 1
        return (self._value >> (self._limit - self._pos)) & 1

    def read_uint(self, width: int) -> int:
        """Read an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        if self._pos + width > self._limit:
            raise Asn1Error(
                f"need {width} bits at offset {self._pos}, "
                f"only {self.remaining} remain"
            )
        self._pos += width
        return (self._value >> (self._limit - self._pos)) & ((1 << width) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read *count* raw octets, unaligned."""
        return self.read_uint(8 * count).to_bytes(count, "big")

    def read_length(self) -> int:
        """Read an unconstrained length determinant (X.691 10.9.3)."""
        first = self.read_uint(8)
        if first < 128:
            return first
        if (first >> 6) == 0b10:
            return ((first & 0x3F) << 8) | self.read_uint(8)
        raise Asn1Error("fragmented lengths unsupported")
