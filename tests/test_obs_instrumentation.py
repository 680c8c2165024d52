"""Instrumentation must be observation, not intervention.

The tentpole guarantee of ``repro.obs``: attaching collectors changes
*nothing* about a run -- every RunMeasurement field, every step
timeline entry and every fault verdict stays bit-identical, whether
the campaign runs serially or across workers.  Alongside the
bit-identity oracle, these tests pin that the instrumented run
actually *observes* the stack: spans for every known stage, counters
for every layer.
"""

from repro.core import (
    EmergencyBrakeScenario,
    ScaleTestbed,
    run_campaign_parallel,
)
from repro.faults.catalogue import builtin_plans
from repro.faults.envelope import evaluate
from repro.obs import ObsAggregate, ObsContext

#: Short scenario so each test stays fast (same as the engine tests).
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)


def as_dicts(result):
    return [measurement.to_dict() for measurement in result.runs]


class TestBitIdentity:
    def test_single_run_identical_with_and_without_obs(self):
        plain = ScaleTestbed(FAST, run_id=1).run()
        observed = ScaleTestbed(FAST, run_id=1,
                                obs=ObsContext()).run()
        assert observed.to_dict() == plain.to_dict()

    def test_campaign_identical_instrumented_vs_not(self):
        plain = run_campaign_parallel(FAST, runs=3, base_seed=5,
                                      workers=1)
        aggregate = ObsAggregate()
        # workers=4 on purpose: instrumented campaigns shard across
        # the pool (per-worker contexts merge through the exact fold)
        # and must still match the uninstrumented parallel population
        # bit for bit.
        observed = run_campaign_parallel(FAST, runs=3, base_seed=5,
                                         workers=4, obs=aggregate)
        assert as_dicts(observed) == as_dicts(plain)
        assert observed.table2() == plain.table2()
        assert aggregate.runs == 3
        assert observed.obs is aggregate
        assert plain.obs is None

    def test_fault_verdicts_identical_under_instrumentation(self):
        plan = next(p for p in builtin_plans() if not p.is_empty)
        plain = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                      workers=1, fault_plan=plan)
        observed = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                         workers=1, fault_plan=plan,
                                         obs=ObsAggregate())
        assert as_dicts(observed) == as_dicts(plain)
        assert [evaluate(m) for m in observed.runs] == \
            [evaluate(m) for m in plain.runs]


class TestCoverage:
    """One instrumented run observes every layer of the stack."""

    def setup_method(self):
        self.ctx = ObsContext()
        self.measurement = ScaleTestbed(FAST, obs=self.ctx).run()

    def test_spans_cover_known_stages(self):
        stats = self.ctx.spans.stats()
        for name in ("phy.tx", "mac.access", "http.request",
                     "obu.poll", "pipeline.detect", "vehicle.brake",
                     "e2e.detection_to_send", "e2e.send_to_receive",
                     "e2e.receive_to_actuation", "e2e.total"):
            assert name in stats, f"missing span {name}"
            assert stats[name].count > 0

    def test_counters_cover_known_layers(self):
        def total(name):
            return sum(metric.value for (metric_name, _), metric
                       in self.ctx.metrics._metrics.items()
                       if metric_name == name)

        for name in ("kernel.events", "phy.frames_sent",
                     "phy.frames_delivered",
                     "http.requests_served", "ca.cams_sent",
                     "den.denms_sent", "den.denms_received",
                     "obu.polls", "obu.denms_handled",
                     "vehicle.emergency_stops",
                     "vehicle.commands_delivered",
                     "pipeline.frames_processed"):
            assert total(name) > 0, f"counter {name} never incremented"

    def test_histograms_observed(self):
        metrics = self.ctx.metrics.to_dict()
        for name in ("mac.access_delay_ms", "phy.airtime_ms",
                     "http.queue_service_ms", "obu.poll_rtt_ms",
                     "pipeline.inference_ms"):
            assert any(key.split("{")[0] == name for key in metrics), \
                f"histogram {name} never observed"

    def test_e2e_spans_match_timeline_intervals(self):
        intervals = self.measurement.intervals_ms(use_clock=False)
        stats = self.ctx.spans.stats()
        for span, row in (("e2e.detection_to_send",
                           "detection_to_send"),
                          ("e2e.total", "total")):
            assert stats[span].total * 1000.0 == \
                intervals[row]

    def test_prometheus_export_renders(self):
        text = self.ctx.to_prometheus_text()
        assert "repro_kernel_events" in text
        assert "repro_span_e2e_total_seconds_count 1" in text


class TestDccInstrumentation:
    """The DCC gate is not wired into the default testbed, so its
    counters are pinned directly against a standalone gatekeeper."""

    def test_gate_counts_passed_and_gated_frames(self):
        import numpy as np

        from repro.net import Frame, NetworkInterface, WirelessMedium
        from repro.net.dcc import DccGatekeeper
        from repro.net.propagation import (
            LinkBudget,
            LogDistancePathLoss,
        )
        from repro.sim import Simulator

        sim = Simulator()
        ctx = ObsContext().bind(sim)
        medium = WirelessMedium(
            sim, np.random.default_rng(1),
            LinkBudget(path_loss=LogDistancePathLoss()))
        nic = NetworkInterface(sim, medium, "main",
                               lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        for _ in range(3):  # first passes, the rest queue behind t_off
            gate.send(Frame(payload=b"x", size=60, source=""))
        sim.run_until(1.0)
        metrics = ctx.metrics
        assert metrics.counter("dcc.frames_passed",
                               device="main").value == 3.0
        assert metrics.counter("dcc.frames_gated",
                               device="main").value == 2.0
        assert metrics.gauge("dcc.state", device="main").value == 0.0


class TestAggregate:
    def test_cached_runs_counted(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_campaign_parallel(FAST, runs=2, base_seed=9, workers=1,
                              cache_dir=cache)
        aggregate = ObsAggregate()
        result = run_campaign_parallel(FAST, runs=2, base_seed=9,
                                       workers=1, cache_dir=cache,
                                       obs=aggregate)
        assert aggregate.runs == 0
        assert aggregate.cached_runs == 2
        assert len(result.runs) == 2
