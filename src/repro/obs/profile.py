"""Wall-clock profiling hooks for the engine's hot paths.

Simulated time tells us what the modelled system does; wall time
tells us how fast the *simulator* does it -- the number the ROADMAP's
"as fast as the hardware allows" goal needs a trajectory for.  The
profiler accumulates ``perf_counter`` durations per named site
(``kernel.step``, ``vision.canny``, ``asn1.encode``, ``run.total``)
into bounded per-name statistics.

Wall time is inherently nondeterministic, so it lives in its own
container and never flows into :class:`RunMeasurement`, trace output
or anything else under the bit-identity oracles; it surfaces only
through the observability report section.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator


@dataclasses.dataclass
class WallStats:
    """Aggregated wall-clock durations for one profiled site."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    @property
    def mean(self) -> float:
        """Mean duration (s), or NaN when empty."""
        return self.total / self.count if self.count else float("nan")

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.minimum = min(self.minimum, seconds)
        self.maximum = max(self.maximum, seconds)

    def merge(self, other: "WallStats") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.minimum if self.count else None,
            "max_s": self.maximum if self.count else None,
            "mean_s": self.mean if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WallStats":  # detlint: ignore[FPR002] -- 'mean_s' is derived (total_s / count) and recomputed by the mean property; reading it back could shadow the exact accumulator
        """Rebuild stats serialised by :meth:`to_dict`."""
        stats = cls()
        stats.count = int(data["count"])
        stats.total = float(data["total_s"])
        if stats.count:
            stats.minimum = float(data["min_s"])
            stats.maximum = float(data["max_s"])
        return stats


class WallProfiler:
    """Accumulates wall-clock durations per named site."""

    def __init__(self) -> None:
        self._stats: Dict[str, WallStats] = {}

    def observe(self, name: str, seconds: float) -> None:
        """Record one already-measured duration."""
        self._stats.setdefault(name, WallStats()).add(seconds)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Time the enclosed block with ``perf_counter``."""
        begin = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - begin)

    def stats(self) -> Dict[str, WallStats]:
        """Per-name stats, sorted by name."""
        return dict(sorted(self._stats.items()))

    def merge(self, other: "WallProfiler") -> None:
        """Fold *other*'s accumulated stats into this profiler."""
        for name, stats in sorted(other._stats.items()):
            self._stats.setdefault(name, WallStats()).merge(stats)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable per-name stats."""
        return {name: stats.to_dict()
                for name, stats in sorted(self.stats().items())}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WallProfiler":
        """Rebuild a profiler serialised by :meth:`to_dict`."""
        profiler = cls()
        for name, entry in sorted(data.items()):
            profiler._stats[name] = WallStats.from_dict(entry)
        return profiler

    def __len__(self) -> int:
        return len(self._stats)
