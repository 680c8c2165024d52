"""Unit and property-based tests for the ASN.1 UPER codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import (
    Asn1Error,
    BitReader,
    BitWriter,
    Boolean,
    BitString,
    Choice,
    Enumerated,
    Field,
    IA5String,
    Integer,
    Null,
    OctetString,
    Sequence,
    SequenceOf,
)


# ---------------------------------------------------------------------------
# Bit-level primitives
# ---------------------------------------------------------------------------


class TestBitPrimitives:
    def test_single_bits_round_trip(self):
        writer = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for bit in pattern:
            writer.write_bit(bit)
        reader = BitReader(writer.to_bytes())
        assert [reader.read_bit() for _ in range(9)] == pattern

    def test_uint_round_trip(self):
        writer = BitWriter()
        writer.write_uint(5, 3)
        writer.write_uint(1000, 10)
        writer.write_uint(0, 0)
        writer.write_uint(1, 1)
        reader = BitReader(writer.to_bytes())
        assert reader.read_uint(3) == 5
        assert reader.read_uint(10) == 1000
        assert reader.read_uint(0) == 0
        assert reader.read_uint(1) == 1

    def test_uint_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_uint(8, 3)

    def test_negative_uint_rejected(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_uint(-1, 4)

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        reader.read_uint(8)
        with pytest.raises(Asn1Error):
            reader.read_bit()

    def test_padding_to_octet(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.to_bytes() == b"\x80"

    def test_bytes_unaligned(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write_bytes(b"\xab")
        reader = BitReader(writer.to_bytes())
        assert reader.read_bit() == 1
        assert reader.read_bytes(1) == b"\xab"

    @pytest.mark.parametrize("value", [2**64, 2**70 + 5])
    def test_wide_uint_overflow_rejected(self, value):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_uint(value, 64)
        assert writer.bit_length == 0

    def test_widest_64_bit_uint_round_trips(self):
        writer = BitWriter()
        writer.write_uint(2**64 - 1, 64)
        assert writer.to_bytes() == b"\xff" * 8
        assert BitReader(writer.to_bytes()).read_uint(64) == 2**64 - 1

    def test_numpy_uint_keeps_writer_exact(self):
        import numpy as np

        writer = BitWriter()
        writer.write_uint(np.int64(5), 3)
        writer.write_uint(2**70, 71)
        writer.write_uint(np.int64(1), 1)
        reference = BitWriter()
        for value, width in ((5, 3), (2**70, 71), (1, 1)):
            reference.write_uint(value, width)
        assert writer.to_bytes() == reference.to_bytes()

    @given(st.integers(0, 2**32 - 1), st.integers(32, 48))
    def test_uint_round_trip_property(self, value, width):
        writer = BitWriter()
        writer.write_uint(value, width)
        assert BitReader(writer.to_bytes()).read_uint(width) == value

    @given(st.integers(0, 16383))
    def test_length_determinant_round_trip(self, length):
        writer = BitWriter()
        writer.write_length(length)
        assert BitReader(writer.to_bytes()).read_length() == length

    def test_length_fragmentation_unsupported(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_length(16384)


# ---------------------------------------------------------------------------
# Differential oracle: the int-accumulator codec against bit-list references
# ---------------------------------------------------------------------------


class ReferenceBitWriter:
    """The original writer: one list entry per bit."""

    def __init__(self):
        self.bits = []

    def write_bit(self, bit):
        self.bits.append(1 if bit else 0)

    def write_uint(self, value, width):
        for shift in range(width - 1, -1, -1):
            self.bits.append((value >> shift) & 1)

    def write_bytes(self, data):
        for byte in data:
            self.write_uint(byte, 8)

    def write_length(self, length):
        if length < 128:
            self.write_uint(length, 8)
        else:
            self.write_uint(0b10, 2)
            self.write_uint(length, 14)

    def to_bytes(self):
        out = bytearray()
        acc = count = 0
        for bit in self.bits:
            acc = (acc << 1) | bit
            count += 1
            if count == 8:
                out.append(acc)
                acc = count = 0
        if count:
            out.append(acc << (8 - count))
        return bytes(out)


class ReferenceBitReader:
    """The original reader: one byte lookup per bit."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.limit = len(data) * 8

    def read_bit(self):
        if self.pos >= self.limit:
            raise Asn1Error("bit stream exhausted")
        bit = (self.data[self.pos >> 3] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit

    def read_uint(self, width):
        if self.pos + width > self.limit:
            raise Asn1Error(
                f"need {width} bits at offset {self.pos}, "
                f"only {self.limit - self.pos} remain"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_bytes(self, count):
        return bytes(self.read_uint(8) for _ in range(count))

    def read_length(self):
        first = self.read_uint(8)
        if first < 128:
            return first
        return ((first & 0x3F) << 8) | self.read_uint(8)


def _uint_op(width):
    return st.integers(0, 2**width - 1).map(lambda v: ("uint", v, width))


bit_ops = st.lists(st.one_of(
    st.integers(0, 1).map(lambda b: ("bit", b)),
    st.integers(0, 80).flatmap(_uint_op),
    st.binary(max_size=12).map(lambda d: ("bytes", d)),
    st.integers(0, 16383).map(lambda n: ("length", n)),
), max_size=30)


def _write(writer, op):
    kind, *args = op
    getattr(writer, f"write_{kind}")(*args)


def _read(reader, op):
    kind = op[0]
    if kind == "uint":
        return reader.read_uint(op[2])
    if kind == "bytes":
        return reader.read_bytes(len(op[1]))
    return getattr(reader, f"read_{kind}")()


class TestBitCodecOracle:
    @given(bit_ops)
    @settings(max_examples=400)
    def test_writer_matches_bit_list_reference(self, ops):
        writer, reference = BitWriter(), ReferenceBitWriter()
        for op in ops:
            _write(writer, op)
            _write(reference, op)
            assert writer.bit_length == len(writer) == len(reference.bits)
        assert writer.to_bytes() == reference.to_bytes()

    @given(bit_ops, st.integers(1, 9))
    @settings(max_examples=400)
    def test_reader_matches_bit_at_a_time_reference(self, ops, overrun):
        writer = ReferenceBitWriter()
        for op in ops:
            _write(writer, op)
        data = writer.to_bytes()
        reader, reference = BitReader(data), ReferenceBitReader(data)
        for op in ops:
            assert _read(reader, op) == _read(reference, op)
            assert reader.position == reference.pos
        assert reader.remaining == reference.limit - reference.pos
        # Reading past the end fails the same way in both.
        width = reader.remaining + overrun
        with pytest.raises(Asn1Error) as got:
            reader.read_uint(width)
        with pytest.raises(Asn1Error) as want:
            reference.read_uint(width)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Scalar types
# ---------------------------------------------------------------------------


class TestInteger:
    def test_constrained_width(self):
        # Range of 8 values -> 3 bits.
        t = Integer(0, 7)
        writer = BitWriter()
        t.encode(writer, 5)
        assert writer.bit_length == 3

    def test_single_value_range_is_zero_bits(self):
        t = Integer(4, 4)
        writer = BitWriter()
        t.encode(writer, 4)
        assert writer.bit_length == 0
        assert t.from_bytes(b"") == 4

    def test_out_of_range_rejected(self):
        t = Integer(0, 10)
        with pytest.raises(Asn1Error):
            t.to_bytes(11)
        with pytest.raises(Asn1Error):
            t.to_bytes(-1)

    def test_bool_rejected(self):
        with pytest.raises(Asn1Error):
            Integer(0, 1).to_bytes(True)

    def test_empty_range_rejected(self):
        with pytest.raises(Asn1Error):
            Integer(5, 4)

    @given(st.integers(-900000000, 900000001))
    def test_latitude_range_round_trip(self, value):
        t = Integer(-900000000, 900000001)
        assert t.from_bytes(t.to_bytes(value)) == value

    @given(st.integers(0, 10**12))
    def test_semi_constrained_round_trip(self, value):
        t = Integer(lo=0)
        assert t.from_bytes(t.to_bytes(value)) == value

    @given(st.integers(-10**12, 10**12))
    def test_unconstrained_round_trip(self, value):
        t = Integer()
        assert t.from_bytes(t.to_bytes(value)) == value


class TestBooleanNull:
    def test_boolean_round_trip(self):
        t = Boolean()
        assert t.from_bytes(t.to_bytes(True)) is True
        assert t.from_bytes(t.to_bytes(False)) is False

    def test_boolean_is_one_bit(self):
        writer = BitWriter()
        Boolean().encode(writer, True)
        assert writer.bit_length == 1

    def test_boolean_rejects_non_bool(self):
        with pytest.raises(Asn1Error):
            Boolean().to_bytes(1)

    def test_null_encodes_nothing(self):
        assert Null().to_bytes(None) == b""
        assert Null().from_bytes(b"") is None

    def test_null_rejects_values(self):
        with pytest.raises(Asn1Error):
            Null().to_bytes(0)


class TestEnumerated:
    def test_round_trip(self):
        t = Enumerated(["red", "green", "blue"])
        for name in ("red", "green", "blue"):
            assert t.from_bytes(t.to_bytes(name)) == name

    def test_width(self):
        writer = BitWriter()
        Enumerated(["a", "b", "c"]).encode(writer, "c")
        assert writer.bit_length == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(Asn1Error):
            Enumerated(["a"]).to_bytes("b")

    def test_empty_enum_rejected(self):
        with pytest.raises(Asn1Error):
            Enumerated([])


class TestStringsAndBits:
    def test_fixed_bit_string(self):
        t = BitString(4)
        data = t.to_bytes((1, 0, 1, 1))
        assert t.from_bytes(data) == (1, 0, 1, 1)

    def test_variable_bit_string(self):
        t = BitString(0, 8)
        assert t.from_bytes(t.to_bytes(())) == ()
        assert t.from_bytes(t.to_bytes((1, 1, 1))) == (1, 1, 1)

    def test_bit_string_size_enforced(self):
        with pytest.raises(Asn1Error):
            BitString(2, 4).to_bytes((1,))

    def test_bad_bit_value_rejected(self):
        with pytest.raises(Asn1Error):
            BitString(2).to_bytes((1, 2))

    @given(st.binary(max_size=64))
    def test_unbounded_octet_string_round_trip(self, data):
        t = OctetString()
        assert t.from_bytes(t.to_bytes(data)) == data

    def test_fixed_octet_string(self):
        t = OctetString(3, 3)
        assert t.from_bytes(t.to_bytes(b"abc")) == b"abc"
        with pytest.raises(Asn1Error):
            t.to_bytes(b"ab")

    @given(st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126), max_size=30))
    def test_ia5_round_trip(self, text):
        t = IA5String()
        assert t.from_bytes(t.to_bytes(text)) == text

    def test_ia5_rejects_non_ascii(self):
        with pytest.raises(Asn1Error):
            IA5String().to_bytes("café")

    def test_ia5_is_seven_bits_per_char(self):
        writer = BitWriter()
        IA5String(2, 2).encode(writer, "ab")
        assert writer.bit_length == 14


# ---------------------------------------------------------------------------
# Constructed types
# ---------------------------------------------------------------------------

POINT = Sequence("Point", [
    Field("x", Integer(0, 100)),
    Field("y", Integer(0, 100)),
    Field("label", IA5String(0, 10), optional=True),
])


class TestSequence:
    def test_round_trip_mandatory(self):
        value = {"x": 3, "y": 99}
        assert POINT.from_bytes(POINT.to_bytes(value)) == value

    def test_round_trip_with_optional(self):
        value = {"x": 1, "y": 2, "label": "home"}
        assert POINT.from_bytes(POINT.to_bytes(value)) == value

    def test_missing_mandatory_rejected(self):
        with pytest.raises(Asn1Error, match="missing mandatory"):
            POINT.to_bytes({"x": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(Asn1Error, match="unknown fields"):
            POINT.to_bytes({"x": 1, "y": 2, "z": 3})

    def test_error_names_the_field(self):
        with pytest.raises(Asn1Error, match="Point.x"):
            POINT.to_bytes({"x": 999, "y": 2})

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(Asn1Error):
            Sequence("Bad", [Field("a", Boolean()), Field("a", Boolean())])

    def test_extensible_sequence_round_trip(self):
        t = Sequence("Ext", [Field("a", Integer(0, 3))], extensible=True)
        assert t.from_bytes(t.to_bytes({"a": 2})) == {"a": 2}

    def test_empty_extensible_sequence(self):
        t = Sequence("Empty", [], extensible=True)
        assert t.from_bytes(t.to_bytes({})) == {}


class TestSequenceOf:
    def test_bounded_round_trip(self):
        t = SequenceOf(Integer(0, 255), 0, 5)
        for value in ([], [1], [1, 2, 3, 4, 5]):
            assert t.from_bytes(t.to_bytes(value)) == value

    def test_unbounded_round_trip(self):
        t = SequenceOf(Integer(0, 255))
        value = list(range(200))
        assert t.from_bytes(t.to_bytes(value)) == value

    def test_count_bounds_enforced(self):
        t = SequenceOf(Integer(0, 255), 1, 3)
        with pytest.raises(Asn1Error):
            t.to_bytes([])
        with pytest.raises(Asn1Error):
            t.to_bytes([1, 2, 3, 4])

    def test_nested_sequence_of(self):
        t = SequenceOf(SequenceOf(Integer(0, 7), 0, 3), 0, 3)
        value = [[1, 2], [], [7]]
        assert t.from_bytes(t.to_bytes(value)) == value


class TestChoice:
    SHAPE = Choice("Shape", [
        ("circle", Integer(0, 1000)),
        ("rect", Sequence("Rect", [
            Field("w", Integer(0, 100)),
            Field("h", Integer(0, 100)),
        ])),
    ])

    def test_round_trip_each_alternative(self):
        for value in (("circle", 42), ("rect", {"w": 3, "h": 4})):
            assert self.SHAPE.from_bytes(self.SHAPE.to_bytes(value)) == value

    def test_unknown_alternative_rejected(self):
        with pytest.raises(Asn1Error):
            self.SHAPE.to_bytes(("triangle", 1))

    def test_malformed_value_rejected(self):
        with pytest.raises(Asn1Error):
            self.SHAPE.to_bytes("circle")

    def test_extensible_choice(self):
        t = Choice("E", [("a", Boolean())], extensible=True)
        assert t.from_bytes(t.to_bytes(("a", True))) == ("a", True)


# ---------------------------------------------------------------------------
# Property-based: composite round-trip
# ---------------------------------------------------------------------------

COMPOSITE = Sequence("Composite", [
    Field("id", Integer(0, 2**32 - 1)),
    Field("kind", Enumerated(["alpha", "beta", "gamma"])),
    Field("flags", BitString(0, 8)),
    Field("payload", OctetString(0, 32), optional=True),
    Field("tags", SequenceOf(IA5String(0, 8), 0, 4)),
])

composite_values = st.fixed_dictionaries(
    {
        "id": st.integers(0, 2**32 - 1),
        "kind": st.sampled_from(["alpha", "beta", "gamma"]),
        "flags": st.lists(st.sampled_from([0, 1]), max_size=8).map(tuple),
        "tags": st.lists(
            st.text(alphabet="abcdefgh", max_size=8), max_size=4),
    },
).flatmap(
    lambda base: st.one_of(
        st.just(base),
        st.binary(max_size=32).map(
            lambda payload: {**base, "payload": payload}),
    )
)


@settings(max_examples=200)
@given(composite_values)
def test_composite_round_trip_property(value):
    assert COMPOSITE.from_bytes(COMPOSITE.to_bytes(value)) == value


@given(composite_values, composite_values)
def test_distinct_values_encode_distinctly(a, b):
    # UPER is a canonical encoding: equal bytes iff equal values.
    assert (COMPOSITE.to_bytes(a) == COMPOSITE.to_bytes(b)) == (a == b)


# ---------------------------------------------------------------------------
# Decode robustness: arbitrary bytes must fail cleanly
# ---------------------------------------------------------------------------


class TestDecodeRobustness:
    """Feeding arbitrary bytes into any decoder must either produce a
    value or raise Asn1Error -- never an unrelated exception."""

    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_composite_decode_never_crashes(self, data):
        try:
            COMPOSITE.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_cam_decode_never_crashes(self, data):
        from repro.messages.cam import CAM_PDU

        try:
            CAM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_denm_decode_never_crashes(self, data):
        from repro.messages.denm import DENM_PDU

        try:
            DENM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=96))
    @settings(max_examples=150)
    def test_spatem_decode_never_crashes(self, data):
        from repro.messages.spat import SPATEM_PDU

        try:
            SPATEM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=96))
    @settings(max_examples=150)
    def test_cpm_decode_never_crashes(self, data):
        from repro.messages.cpm import CPM_PDU

        try:
            CPM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    @settings(max_examples=100)
    def test_bitflip_of_valid_cam_fails_cleanly(self, noise, bit):
        from repro.messages import Cam, ReferencePosition, StationType
        from repro.messages.cam import CAM_PDU

        cam = Cam(station_id=1, station_type=StationType.PASSENGER_CAR,
                  generation_delta_time=0,
                  position=ReferencePosition(41.0, -8.0))
        data = bytearray(cam.encode())
        index = noise[0] % len(data)
        data[index] ^= 1 << bit
        try:
            CAM_PDU.from_bytes(bytes(data))
        except Asn1Error:
            pass


def _valid_messages():
    """One valid encoding per message type, with optional containers."""
    import dataclasses

    from repro.messages import (
        ActionId, Cam, Denm, ReferencePosition, StationType)
    from repro.messages.cpm import Cpm, PerceivedObject
    from repro.messages.spat import MovementState, Spatem

    pos = ReferencePosition(41.178, -8.608, altitude=90.0)
    cam = Cam(station_id=7, station_type=StationType.PASSENGER_CAR,
              generation_delta_time=1234, position=pos, heading=45.0,
              speed=1.5, longitudinal_acceleration=-0.2, curvature=0.01,
              yaw_rate=3.0, exterior_lights=(1, 0, 0, 0, 0, 0, 0, 0),
              path_history=((1e-5, 2e-5), (-1e-5, 0.0)))
    denm = dataclasses.replace(
        Denm.collision_risk(ActionId(9, 9), 1000, pos,
                            StationType.ROAD_SIDE_UNIT, event_speed=1.2,
                            event_heading=270.0),
        relevance_distance="lessThan50m",
        traces=(((1e-5, 2e-5), (-1e-5, 0.0)),),
        lane_position=2, external_temperature=21,
        stationary_vehicle=True)
    cpm = Cpm(
        station_id=900, station_type=StationType.ROAD_SIDE_UNIT,
        generation_delta_time=1234, reference_position=pos,
        perceived_objects=(
            PerceivedObject(1, x_offset=3.5, y_offset=-1.2, x_speed=0.0,
                            y_speed=-1.1, confidence=0.8,
                            classification="passengerCar"),
            PerceivedObject(2, x_offset=-0.5, y_offset=4.0,
                            classification="pedestrian"),
        ))
    spatem = Spatem(
        station_id=900, intersection_id=7, revision=3,
        movements=(
            MovementState(1, "stop-And-Remain", 5.0),
            MovementState(2, "protected-Movement-Allowed", 5.0,
                          likely_seconds=6.0),
        ))
    return [(type(msg), msg.encode()) for msg in (cam, denm, cpm, spatem)]


class TestTruncatedMessages:
    """Every strict prefix of a valid message is a truncated frame: it
    must decode or raise Asn1Error, never an IndexError, ValueError or
    OverflowError from the bit reader."""

    @pytest.mark.parametrize("kind, data", _valid_messages(),
                             ids=["cam", "denm", "cpm", "spatem"])
    def test_every_prefix_fails_with_a_typed_error(self, kind, data):
        assert kind.decode(data) is not None
        for cut in range(len(data)):
            try:
                kind.decode(data[:cut])
            except Asn1Error:
                pass
