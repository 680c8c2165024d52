"""The per-run observability context and the campaign aggregate.

:class:`ObsContext` bundles the two collectors (metrics registry,
sim-time span recorder) for *one* simulation run.  A testbed built
with ``ScaleTestbed(scenario, obs=ctx)`` attaches it as ``sim.obs``;
every instrumented site in the stack then reports through the
convenience methods here.  When no context is attached (``sim.obs is
None``, the default) every seam is a no-op and the run is
bit-identical to an uninstrumented one.

:class:`ObsAggregate` folds per-run contexts into campaign-level
state: metric registries merge exactly, span statistics merge per
name, per-run wall times accumulate for runs/sec.  The campaign
engine attaches the aggregate to its
:class:`~repro.core.testbed.CampaignResult`, and the report's
observability section renders it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    Span,
    SpanEvent,
    SpanRecorder,
    SpanStats,
    merge_span_stats,
)


class ObsContext:
    """All collectors for one instrumented simulation run."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()

    def bind(self, sim: Any) -> "ObsContext":
        """Attach to *sim*: spans read ``sim.now``, seams light up."""
        self.spans.bind(lambda: sim.now)
        sim.obs = self
        return self

    # ------------------------------------------------------------------
    # Convenience API used by the instrumentation sites
    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1,
              **labels: Any) -> None:
        """Increment the counter *name*."""
        self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float,
                buckets: Optional[Iterable[float]] = None,
                **labels: Any) -> None:
        """Observe *value* into the histogram *name*."""
        self.metrics.histogram(name, buckets=buckets,
                               **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge *name*."""
        self.metrics.gauge(name, **labels).set(value)

    def span(self, name: str, device: str = "") -> Span:
        """Open a live sim-time span."""
        return self.spans.start(name, device=device)

    def record_span(self, name: str, start: float, end: float,
                    device: str = "") -> None:
        """Record a sim-time span whose endpoints are known."""
        self.spans.record(name, start, end, device=device)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form of one run's observability data."""
        return {
            "metrics": self.metrics.to_dict(),
            "spans": {name: stats.to_dict()
                      for name, stats
                      in sorted(self.spans.stats().items())},
            "span_events": self.spans.to_dicts(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsContext":  # detlint: ignore[FPR002] -- 'spans' holds per-name statistics derived from span_events; they are re-derived on load (see docstring) so the round-trip stays byte-identical
        """Rebuild a context serialised by :meth:`to_dict`.

        Per-name span statistics are re-derived from the replayed
        events, so the round-tripped ``to_dict`` matches the
        original byte for byte.
        """
        ctx = cls()
        ctx.metrics = MetricsRegistry.from_dict(data["metrics"])
        for entry in data["span_events"]:
            ctx.spans._events.append(SpanEvent.from_dict(entry))
        return ctx

    def to_prometheus_text(self) -> str:
        """Prometheus exposition text: metrics + span-duration series."""
        text = self.metrics.to_prometheus_text()
        lines: List[str] = []
        for name, stats in sorted(self.spans.stats().items()):
            flat = ("repro_span_" + name).replace(".", "_")
            lines.append(f"# TYPE {flat}_seconds summary")
            lines.append(f'{flat}_seconds_count {stats.count}')
            lines.append(f'{flat}_seconds_sum {stats.total!r}')
        return text + ("\n".join(lines) + "\n" if lines else "")


class ObsAggregate:
    """Campaign-level fold of per-run :class:`ObsContext` data."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.span_stats: Dict[str, SpanStats] = {}
        self.runs = 0
        self.cached_runs = 0
        self.run_wall_seconds: List[float] = []

    def add_run(self, ctx: ObsContext,
                wall_seconds: Optional[float] = None) -> None:
        """Fold one instrumented run into the aggregate."""
        self.metrics.merge(ctx.metrics)
        merge_span_stats(self.span_stats, ctx.spans.stats())
        self.runs += 1
        if wall_seconds is not None:
            self.run_wall_seconds.append(wall_seconds)

    def add_cached(self) -> None:
        """Note a run served from the cache (nothing to observe)."""
        self.cached_runs += 1

    @property
    def total_wall_seconds(self) -> float:
        """Summed per-run wall time (s)."""
        return sum(self.run_wall_seconds)

    @property
    def runs_per_second(self) -> float:
        """Simulated runs completed per wall second, or NaN."""
        total = self.total_wall_seconds
        if not self.run_wall_seconds or total <= 0.0:
            return float("nan")
        return len(self.run_wall_seconds) / total

    def span_stats_sorted(self) -> Dict[str, SpanStats]:
        """Span stats sorted by name."""
        return dict(sorted(self.span_stats.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form of the aggregate."""
        return {
            "runs": self.runs,
            "cached_runs": self.cached_runs,
            "run_wall_seconds": list(self.run_wall_seconds),
            "metrics": self.metrics.to_dict(),
            "spans": {name: stats.to_dict()
                      for name, stats in
                      sorted(self.span_stats_sorted().items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsAggregate":
        """Rebuild an aggregate serialised by :meth:`to_dict`."""
        agg = cls()
        agg.runs = int(data["runs"])
        agg.cached_runs = int(data["cached_runs"])
        agg.run_wall_seconds = [float(v) for v
                                in data["run_wall_seconds"]]
        agg.metrics = MetricsRegistry.from_dict(data["metrics"])
        for name, entry in sorted(data["spans"].items()):
            agg.span_stats[name] = SpanStats.from_dict(entry)
        return agg

    def sim_digest(self) -> str:
        """SHA-256 over the deterministic slice of the aggregate.

        Covers run/cached counts, metrics and span statistics -- the
        parts the simulation determines -- and excludes the per-run
        wall times, which are real measured durations and never
        reproducible.  Two campaigns
        over the same work fold to the same ``sim_digest`` whatever
        the backend, worker count or crash history.
        """
        import hashlib

        from repro.core.fingerprint import canonical_json

        data = self.to_dict()
        text = canonical_json({key: data[key] for key in
                               ("runs", "cached_runs", "metrics",
                                "spans")})
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["ObsAggregate", "ObsContext"]
