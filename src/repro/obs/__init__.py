"""Deterministic observability: metrics and sim-time spans.

The testbed's headline claims are quantitative (Table II latency
decomposition, the 1.6 ms radio hop, the 0.36 m braking distance), so
the reproduction needs a first-class measurement layer rather than ad
hoc prints.  This package provides two cooperating pieces:

* :mod:`repro.obs.metrics` -- a registry of counters, gauges and
  fixed-bucket histograms with *exact* mergeable state (counters are
  plain integers, histogram sums accumulate as rationals, so merging
  per-run registries is associative and commutative bit for bit);
* :mod:`repro.obs.spans` -- sim-time spans (``span("phy.tx") ...
  end()``) recorded per device as structured events, aggregated into
  per-stage statistics.

Both measure simulated time only.  The one wall-clock figure kept is
the per-run wall time :class:`~repro.obs.context.ObsAggregate` folds
for runs/sec; it stays outside every digest.  Per-layer wall-time
attribution of the simulator itself is ``perfbench/tracer.py``'s job,
applied from outside the package.

Everything hangs off an :class:`~repro.obs.context.ObsContext`
attached to a :class:`~repro.sim.kernel.Simulator` via ``sim.obs``.
The seam is no-op-when-unset: instrumented code checks ``sim.obs is
None`` and touches neither RNG streams nor the event queue, so an
uninstrumented run is bit-identical to one that predates this package
(``tests/test_obs_instrumentation.py`` holds that oracle).
"""

from repro.obs.context import ObsAggregate, ObsContext
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.obs.spans import Span, SpanEvent, SpanRecorder, SpanStats

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsAggregate",
    "ObsContext",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "SpanStats",
]
