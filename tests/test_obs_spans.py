"""Tests for sim-time spans and the observability context (repro.obs)."""

import math

from repro.obs import (
    ObsContext,
    SpanRecorder,
    SpanStats,
)
from repro.obs.spans import merge_span_stats
from repro.sim.kernel import Simulator


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanRecorder:
    def test_live_span_across_callbacks(self):
        clock = _FakeClock()
        recorder = SpanRecorder(clock)
        span = recorder.start("phy.tx", device="obu")
        clock.now = 0.25
        event = span.end()
        assert event.duration == 0.25
        assert recorder.events("phy.tx", device="obu") == [event]

    def test_end_is_idempotent(self):
        recorder = SpanRecorder()
        span = recorder.start("x")
        assert span.end() is not None
        assert span.end() is None
        assert len(recorder) == 1

    def test_context_manager(self):
        clock = _FakeClock()
        recorder = SpanRecorder(clock)
        with recorder.start("stage"):
            clock.now = 1.0
        (event,) = recorder.events("stage")
        assert event.end == 1.0

    def test_record_after_the_fact(self):
        recorder = SpanRecorder()
        event = recorder.record("e2e.total", 1.0, 3.5, device="run")
        assert event.duration == 2.5
        assert recorder.stats()["e2e.total"].count == 1

    def test_depth_is_per_device(self):
        recorder = SpanRecorder()
        outer = recorder.start("outer", device="rsu")
        inner = recorder.start("inner", device="rsu")
        other = recorder.start("outer", device="obu")
        assert outer.depth == 0
        assert inner.depth == 1
        assert other.depth == 0
        inner.end()
        outer.end()
        other.end()
        again = recorder.start("again", device="rsu")
        assert again.depth == 0

    def test_stats_aggregation(self):
        recorder = SpanRecorder()
        recorder.record("s", 0.0, 1.0)
        recorder.record("s", 0.0, 3.0)
        stats = recorder.stats()["s"]
        assert stats.count == 2
        assert stats.total == 4.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.mean == 2.0


class TestSpanStats:
    def test_empty_mean_is_nan_and_dict_uses_none(self):
        stats = SpanStats()
        assert math.isnan(stats.mean)
        assert stats.to_dict()["min_s"] is None

    def test_merge(self):
        a, b = SpanStats(), SpanStats()
        a.add(1.0)
        b.add(5.0)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == \
            (2, 6.0, 1.0, 5.0)

    def test_merge_span_stats_by_name(self):
        into = {"x": SpanStats()}
        into["x"].add(1.0)
        other = {"x": SpanStats(), "y": SpanStats()}
        other["x"].add(2.0)
        other["y"].add(3.0)
        merge_span_stats(into, other)
        assert into["x"].count == 2
        assert into["y"].count == 1


class TestObsContext:
    def test_bind_attaches_to_simulator(self):
        sim = Simulator()
        ctx = ObsContext()
        assert sim.obs is None
        ctx.bind(sim)
        assert sim.obs is ctx

    def test_spans_read_simulated_time(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        span = ctx.span("stage", device="dev")
        sim.schedule(2.0, span.end)
        sim.run_until(5.0)
        (event,) = ctx.spans.events("stage")
        assert event.start == 0.0
        assert event.end == 2.0

    def test_convenience_methods(self):
        ctx = ObsContext()
        ctx.count("c", device="obu")
        ctx.observe("h", 0.5)
        ctx.set_gauge("g", 3.0)
        ctx.record_span("s", 0.0, 1.0)
        data = ctx.to_dict()
        assert set(data) == {"metrics", "spans", "span_events"}
        assert 'c{device="obu"}' in data["metrics"]
        assert data["spans"]["s"]["count"] == 1
        assert data["span_events"][0]["name"] == "s"

    def test_prometheus_text_includes_span_summaries(self):
        ctx = ObsContext()
        ctx.count("c")
        ctx.record_span("phy.tx", 0.0, 0.5)
        text = ctx.to_prometheus_text()
        assert "repro_c 1.0" in text
        assert "repro_span_phy_tx_seconds_count 1" in text

    def test_instrumented_kernel_counts_events(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        events = ctx.metrics.counter("kernel.events")
        seen = []
        sim.schedule(1.0, lambda: seen.append(events.value))
        sim.schedule(2.0, lambda: seen.append(events.value))
        sim.run_until(5.0)
        # Each event is counted after its callback returns.
        assert seen == [0.0, 1.0]
        assert events.value == 2.0


def test_uninstrumented_simulator_has_no_obs():
    assert Simulator().obs is None
