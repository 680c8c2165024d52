"""Metric primitives and the registry.

Three metric kinds, modelled on the Prometheus data model but kept
deterministic and *exactly* mergeable:

* :class:`Counter` -- a monotonically increasing integer count;
* :class:`Gauge` -- a point-in-time value (last write wins);
* :class:`Histogram` -- fixed upper-bound buckets plus an exact sum.

Counters hold plain :class:`int` values and histogram sums accumulate
as :class:`fractions.Fraction` (every float is an exact rational), so
merging two registries is associative and commutative *bit for bit*
-- the property the campaign engine relies on when folding per-run
registries into a campaign aggregate, and the invariant pinned by
``tests/test_obs_properties.py``.

Metric identity is ``(name, sorted label pairs)``.  Names follow the
``<layer>.<quantity>`` scheme documented in ARCHITECTURE.md §9
(``phy.frames_sent``, ``http.requests_served``, ...).
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram buckets (upper bounds).  Spaced for latencies in
#: milliseconds: 1 us .. 1000 ms when observations are given in ms.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing integer count.

    The running value is a plain :class:`int`, so merging counters
    is associative and commutative bit for bit regardless of fold
    order -- the DET004 contract for exactly-mergeable state.
    Increments must be whole numbers: :meth:`inc` rejects a float
    with :class:`TypeError` rather than rounding it.  Floats only
    appear at the export edge (:attr:`value`, :meth:`to_dict`), which
    keeps the JSON and Prometheus forms unchanged.
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self) -> float:
        """The count, as a float."""
        return float(self._value)

    def inc(self, amount: int = 1) -> None:
        """Add the integer *amount* (must be >= 0)."""
        amount = operator.index(amount)
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self._value += amount

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (exact)."""
        self._value += other._value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counter":
        value = float(data["value"])
        if not value.is_integer():
            raise ValueError(f"counter value must be integral, "
                             f"got {data['value']!r}")
        counter = cls()
        counter._value = int(value)
        return counter


class Gauge:
    """A point-in-time value; merging keeps the last-set value."""

    __slots__ = ("value", "_set")

    def __init__(self) -> None:
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)
        self._set = True

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by *amount*."""
        self.value += amount
        self._set = True

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``-amount``."""
        self.inc(-amount)

    def merge(self, other: "Gauge") -> None:
        """Fold *other* in: an explicitly-set other wins."""
        if other._set:
            self.value = other.value
            self._set = True

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Gauge":
        gauge = cls()
        gauge.set(float(data["value"]))
        return gauge


class Histogram:
    """Fixed-bucket histogram with exact, mergeable state.

    ``bounds`` are strictly increasing bucket upper bounds; one
    implicit overflow bucket catches everything above the last bound.
    The running sum is kept as an exact rational so that::

        merge(merge(a, b), c) == merge(a, merge(b, c))   # bit for bit

    holds for any observation streams.  Designed for non-negative
    observations (durations, sizes); negative values land in the first
    bucket and quantile interpolation treats the first bucket's lower
    edge as 0.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "_sum")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing: {bounds}")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self._sum = Fraction(0)

    @property
    def sum(self) -> float:
        """The exact sum of observations, as a float."""
        return float(self._sum)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        index = bisect.bisect_left(self.bounds, value)
        self.bucket_counts[index] += 1
        self.count += 1
        self._sum += Fraction(value)

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (same bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self._sum += other._sum

    def mean(self) -> float:
        """Mean observation, or NaN when empty."""
        if self.count == 0:
            return float("nan")
        return float(self._sum / self.count)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile via linear interpolation per bucket.

        The estimate is monotone non-decreasing in *q* (the property
        test's invariant).  Values in the overflow bucket are clamped
        to the highest finite bound, like ``histogram_quantile``.
        Returns NaN when the histogram is empty.
        """
        if self.count == 0:
            return float("nan")
        q = min(1.0, max(0.0, float(q)))
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                cumulative += bucket_count
                continue
            if cumulative + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[index]
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                if index == 0 and upper <= 0.0:
                    lower = upper
                fraction = max(0.0, target - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, fraction)
            cumulative += bucket_count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-serialisable state (sum as a rational string)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": str(self._sum),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(data["bounds"])
        histogram.bucket_counts = [int(c) for c in data["bucket_counts"]]
        histogram.count = int(data["count"])
        histogram._sum = Fraction(data["sum"])
        return histogram


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metrics of one run (or one aggregated campaign).

    Metrics are created on first use (``registry.counter("phy.tx",
    device="obu").inc()``) and identified by name + labels.  The
    registry merges exactly (:meth:`merge`), serialises canonically
    (:meth:`to_dict` / :meth:`from_dict`) and renders the Prometheus
    text exposition format (:meth:`to_prometheus_text`).
    """

    def __init__(self) -> None:
        #: (name, labels) -> metric instance.
        self._metrics: Dict[Tuple[str, LabelPairs], Any] = {}
        #: name -> kind, to reject kind clashes early.
        self._kinds: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, kind: str, name: str, labels: Dict[str, Any],
             buckets: Optional[Iterable[float]] = None) -> Any:
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(
                f"metric {name!r} already registered as {known}, "
                f"requested as {kind}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if kind == "histogram":
                metric = Histogram(buckets or DEFAULT_BUCKETS)
            else:
                metric = _KINDS[kind]()
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter called *name* with *labels* (auto-created)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge called *name* with *labels* (auto-created)."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels: Any) -> Histogram:
        """The histogram called *name* with *labels* (auto-created)."""
        return self._get("histogram", name, labels, buckets)

    # ------------------------------------------------------------------
    # Merging / serialisation
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of *other* into this registry, exactly."""
        for (name, pairs), metric in sorted(other._metrics.items()):
            kind = other._kinds[name]
            labels = dict(pairs)
            if kind == "histogram":
                mine = self._get(kind, name, labels, metric.bounds)
            else:
                mine = self._get(kind, name, labels)
            mine.merge(metric)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form, sorted by name + labels."""
        out: Dict[str, Any] = {}
        for (name, pairs), metric in sorted(self._metrics.items()):
            out[name + _render_labels(pairs)] = {
                "kind": self._kinds[name],
                **metric.to_dict(),
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry serialised by :meth:`to_dict`."""
        registry = cls()
        for full_name, payload in data.items():
            name, labels = _parse_metric_name(full_name)
            kind = payload["kind"]
            metric = _KINDS[kind].from_dict(payload)
            registry._metrics[(name, _label_key(labels))] = metric
            registry._kinds[name] = kind
        return registry

    def to_prometheus_text(self, prefix: str = "repro") -> str:
        """The Prometheus text exposition format.

        Metric names are mangled to the Prometheus charset
        (``phy.frames_sent`` -> ``repro_phy_frames_sent``); histograms
        expand to ``_bucket``/``_sum``/``_count`` series with
        cumulative ``le`` labels.
        """
        lines: List[str] = []
        seen_types = set()
        for (name, pairs), metric in sorted(self._metrics.items()):
            kind = self._kinds[name]
            flat = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
            if flat not in seen_types:
                seen_types.add(flat)
                lines.append(f"# TYPE {flat} {kind}")
            if kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(
                        metric.bounds, metric.bucket_counts):
                    cumulative += bucket_count
                    le = _label_key({"le": repr(bound)})
                    lines.append(f"{flat}_bucket"
                                 f"{_render_labels(pairs + le)} "
                                 f"{cumulative}")
                inf = _label_key({"le": "+Inf"})
                lines.append(f"{flat}_bucket"
                             f"{_render_labels(pairs + inf)} "
                             f"{metric.count}")
                lines.append(f"{flat}_sum{_render_labels(pairs)} "
                             f"{metric.sum!r}")
                lines.append(f"{flat}_count{_render_labels(pairs)} "
                             f"{metric.count}")
            else:
                lines.append(f"{flat}{_render_labels(pairs)} "
                             f"{metric.value!r}")
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_metric_name(full_name: str) -> Tuple[str, Dict[str, str]]:
    """Invert ``name{k="v",...}`` back to (name, labels)."""
    if "{" not in full_name:
        return full_name, {}
    name, _, rest = full_name.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return name, labels
