"""Fault-injection subsystem: plans, injector seams, verdicts and
the fault-matrix campaign (determinism + parallel equivalence)."""

import dataclasses
import json
import math

import pytest

from repro.core.campaign import run_campaign_parallel, scenario_fingerprint
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.faults import (
    ActuationFault,
    CameraBlackout,
    FaultPlan,
    HttpDegradation,
    Jamming,
    NodeOutage,
    PacketLossBurst,
    SAFE_STOP,
    LATE_STOP,
    NO_STOP,
    SPURIOUS_STOP,
    SpuriousDenm,
    evaluate,
    fault_from_dict,
    install_faults,
    run_fault_matrix,
)
from repro.faults.catalogue import builtin_plans, plans_by_name
from repro.faults.report import render_matrix

#: Short-track scenario: the whole chain completes around t=3 s.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)


def run_with_plan(scenario, plan, run_id=1):
    testbed = ScaleTestbed(scenario, run_id=run_id)
    install_faults(testbed, plan)
    return testbed.run()


# ---------------------------------------------------------------------------
# Plans: validation + canonical serialisation
# ---------------------------------------------------------------------------


class TestFaultPlans:
    def test_builtin_plans_round_trip(self):
        for plan in builtin_plans():
            clone = FaultPlan.from_dict(plan.to_dict())
            assert clone == plan
            assert clone.to_dict() == plan.to_dict()

    def test_infinite_duration_serialises_as_string(self):
        fault = CameraBlackout(start=2.0)
        data = fault.to_dict()
        assert data["duration"] == "inf"
        assert json.dumps(data)  # JSON-safe
        assert fault_from_dict(data).duration == math.inf

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "gremlins"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            fault_from_dict({"kind": "jamming", "start": 0.0,
                             "power": -20.0})

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="start"):
            CameraBlackout(start=-1.0)
        with pytest.raises(ValueError, match="target"):
            NodeOutage(target="cloud")
        with pytest.raises(ValueError, match="loss_probability"):
            PacketLossBurst(loss_probability=1.5)
        with pytest.raises(ValueError, match="mode"):
            ActuationFault(mode="sticky")

    def test_activation_window(self):
        fault = Jamming(start=2.0, duration=3.0)
        assert not fault.active(1.99)
        assert fault.active(2.0)
        assert fault.active(4.99)
        assert not fault.active(5.0)

    def test_empty_plan(self):
        plan = FaultPlan.empty()
        assert plan.is_empty
        assert FaultPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
# Bit-identity: the seams cost nothing when unused
# ---------------------------------------------------------------------------


class TestBaselineUnperturbed:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        plain = ScaleTestbed(FAST, run_id=1).run()
        injected = run_with_plan(FAST, FaultPlan.empty())
        assert injected.to_dict() == plain.to_dict()

    def test_install_faults_returns_none_for_empty_plan(self):
        testbed = ScaleTestbed(FAST, run_id=1)
        assert install_faults(testbed, None) is None
        assert install_faults(testbed, FaultPlan.empty()) is None
        assert testbed.medium.impairment is None

    def test_same_plan_same_seed_same_measurement(self):
        plan = plans_by_name()["packet_loss"]
        first = run_with_plan(FAST, plan)
        second = run_with_plan(FAST, plan)
        assert first.to_dict() == second.to_dict()
        assert evaluate(first).to_dict() == evaluate(second).to_dict()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_baseline_is_safe_stop(self):
        verdict = evaluate(ScaleTestbed(FAST, run_id=1).run())
        assert verdict.verdict == SAFE_STOP
        assert verdict.denm_delivered and verdict.detected
        assert verdict.actuated and verdict.halted
        assert verdict.stop_margin is not None
        assert verdict.stop_margin >= 0.53

    def test_rsu_outage_is_no_stop(self):
        plan = FaultPlan("outage", (
            NodeOutage(start=1.0, duration=10.0, target="rsu"),))
        verdict = evaluate(run_with_plan(FAST, plan))
        assert verdict.verdict == NO_STOP
        assert not verdict.denm_delivered
        assert not verdict.halted

    def test_weak_brakes_is_late_stop(self):
        plan = FaultPlan("weak", (
            ActuationFault(mode="limited", brake_factor=0.25),))
        verdict = evaluate(run_with_plan(FAST, plan))
        assert verdict.verdict == LATE_STOP
        assert verdict.halted and verdict.denm_delivered
        assert verdict.stop_margin < 0.53

    def test_spurious_denm_is_spurious_stop(self):
        plan = FaultPlan("ghost", (SpuriousDenm(start=1.0),))
        verdict = evaluate(run_with_plan(FAST, plan))
        assert verdict.verdict == SPURIOUS_STOP
        assert verdict.halted
        assert not verdict.detected

    def test_stuck_actuation_loses_the_stop(self):
        plan = FaultPlan("stuck", (
            ActuationFault(start=1.0, duration=10.0, mode="stuck"),))
        measurement = run_with_plan(FAST, plan)
        verdict = evaluate(measurement)
        # The command was issued (step 5) but never reached the
        # wheels: actuated without halted is still NO_STOP.
        assert verdict.actuated
        assert not verdict.halted
        assert verdict.verdict == NO_STOP

    def test_verdict_round_trips(self):
        verdict = evaluate(ScaleTestbed(FAST, run_id=1).run())
        clone = type(verdict).from_dict(verdict.to_dict())
        assert clone.to_dict() == verdict.to_dict()


# ---------------------------------------------------------------------------
# Injector seams
# ---------------------------------------------------------------------------


class TestInjectorSeams:
    def test_channel_blackout_suppresses_frames(self):
        plan = FaultPlan("outage", (
            NodeOutage(start=1.0, duration=10.0, target="rsu_radio"),))
        testbed = ScaleTestbed(FAST, run_id=1)
        install_faults(testbed, plan)
        testbed.run()
        stats = testbed.medium.stats()
        assert stats["suppressed"] > 0

    def test_rsu_outage_drops_http_requests(self):
        plan = FaultPlan("outage", (
            NodeOutage(start=1.0, duration=10.0, target="rsu"),))
        testbed = ScaleTestbed(FAST, run_id=1)
        install_faults(testbed, plan)
        testbed.run()
        assert testbed.rsu.http.requests_dropped > 0
        # The window ended before the run timeout: the RSU restarted.
        assert testbed.rsu.http.online is True

    def test_edge_outage_stops_camera(self):
        # Infinite duration: the edge node never comes back.
        plan = FaultPlan("edge", (
            NodeOutage(start=0.0, target="edge"),))
        testbed = ScaleTestbed(FAST, run_id=1)
        install_faults(testbed, plan)
        testbed.run()
        assert testbed.edge.camera.frames_captured == 0

    def test_http_degradation_restores_config_after_window(self):
        plan = FaultPlan("degraded", (
            HttpDegradation(start=0.5, duration=1.0, target="obu",
                            drop_probability=1.0),))
        testbed = ScaleTestbed(FAST, run_id=1)
        healthy = testbed.obu.http.config
        install_faults(testbed, plan)
        testbed.run()
        assert testbed.obu.http.config == healthy

    def test_clock_step_skews_measured_interval_only(self):
        from repro.faults import ClockFault

        plan = FaultPlan("clock", (
            ClockFault(start=1.0, target="edge", step_seconds=0.05),))
        skewed = run_with_plan(FAST, plan)
        clean = ScaleTestbed(FAST, run_id=1).run()
        # Physics identical (ground-truth totals match) ...
        assert skewed.total_delay(use_clock=False) == pytest.approx(
            clean.total_delay(use_clock=False))
        # ... but the device-clock measurement inherits the step: the
        # edge clock running 50 ms ahead shrinks step2->3 by ~50 ms.
        delta = (clean.detection_to_send(use_clock=True)
                 - skewed.detection_to_send(use_clock=True))
        assert delta == pytest.approx(0.05, abs=0.01)


# ---------------------------------------------------------------------------
# Message-handler retry backoff (OBU polling under faults)
# ---------------------------------------------------------------------------


class TestPollRetryBackoff:
    def test_timeouts_trigger_capped_exponential_backoff(self):
        plan = FaultPlan("degraded", (
            HttpDegradation(start=0.2, duration=2.0, target="obu",
                            drop_probability=1.0),))
        testbed = ScaleTestbed(FAST, run_id=1)
        retries = []
        testbed.handler.on_event(
            lambda event, record: retries.append(record)
            if event == "poll_retry" else None)
        install_faults(testbed, plan)
        testbed.run()
        assert testbed.handler.retries > 0
        assert testbed.handler.retries == len(retries)
        backoffs = [record["backoff"] for record in retries]
        # Doubles from the initial value and saturates at the cap.
        handler = testbed.handler
        assert backoffs[0] == handler.RETRY_BACKOFF_INITIAL
        assert max(backoffs) <= handler.RETRY_BACKOFF_CAP
        if len(backoffs) > 1:
            assert backoffs[1] == pytest.approx(2 * backoffs[0])
        attempts = [record["attempt"] for record in retries]
        assert attempts[0] == 1
        assert all(b > a for a, b in zip(attempts, attempts[1:])
                   ) or 1 in attempts[1:]  # resets after recovery

    def test_no_timeouts_no_retries_on_baseline(self):
        testbed = ScaleTestbed(FAST, run_id=1)
        testbed.run()
        assert testbed.handler.retries == 0
        assert testbed.handler.timeouts == 0


# ---------------------------------------------------------------------------
# Campaign integration: fingerprints, caching, matrix equivalence
# ---------------------------------------------------------------------------


class TestCampaignIntegration:
    def test_fingerprint_depends_on_plan(self):
        plan = plans_by_name()["packet_loss"]
        base = scenario_fingerprint(FAST)
        with_plan = scenario_fingerprint(FAST, plan)
        assert base != with_plan
        # Same plan rebuilt from its dict -> same key.
        clone = FaultPlan.from_dict(plan.to_dict())
        assert scenario_fingerprint(FAST, clone) == with_plan

    def test_fingerprint_empty_plan_equals_no_plan(self):
        assert scenario_fingerprint(FAST) == scenario_fingerprint(
            FAST, FaultPlan.empty())

    def test_cache_shared_between_plan_campaigns(self, tmp_path):
        plan = FaultPlan("ghost", (SpuriousDenm(start=1.0),))
        first = run_campaign_parallel(
            FAST, runs=2, workers=1, cache_dir=str(tmp_path),
            fault_plan=plan)
        outcomes = []
        second = run_campaign_parallel(
            FAST, runs=2, workers=1, cache_dir=str(tmp_path),
            fault_plan=plan,
            progress=lambda outcome, done, total:
                outcomes.append(outcome.cached))
        assert all(outcomes)
        assert [m.to_dict() for m in second.runs] == \
            [m.to_dict() for m in first.runs]

    def test_matrix_parallel_equals_serial(self):
        from repro.faults import ClockFault

        # Six distinct fault kinds (plus baseline) x four seeds: the
        # full verdict table must be bit-identical for any pool size.
        scenario = dataclasses.replace(FAST, timeout=8.0)
        plans = [
            FaultPlan.empty("baseline"),
            FaultPlan("outage", (
                NodeOutage(start=1.0, duration=10.0, target="rsu"),)),
            FaultPlan("blackout", (CameraBlackout(start=1.0),)),
            FaultPlan("degraded", (
                HttpDegradation(start=1.0, duration=1.5, target="obu",
                                drop_probability=1.0),)),
            FaultPlan("clock", (
                ClockFault(start=1.0, target="edge",
                           step_seconds=0.05),)),
            FaultPlan("weak", (
                ActuationFault(mode="limited", brake_factor=0.3),)),
            FaultPlan("ghost", (SpuriousDenm(start=1.0),)),
        ]
        serial = run_fault_matrix(scenario, plans, runs=4, workers=1)
        parallel = run_fault_matrix(scenario, plans, runs=4, workers=4)
        assert serial.to_dict() == parallel.to_dict()
        verdict_table = [
            (row.name, [v.verdict for v in row.verdicts])
            for row in serial.rows]
        assert verdict_table == [
            (row.name, [v.verdict for v in row.verdicts])
            for row in parallel.rows]

    def test_matrix_rows_aggregate(self):
        plans = [
            FaultPlan.empty("baseline"),
            FaultPlan("outage", (
                NodeOutage(start=1.0, duration=10.0, target="rsu"),)),
        ]
        result = run_fault_matrix(FAST, plans, runs=3, workers=1)
        baseline = result.row("baseline")
        outage = result.row("outage")
        assert baseline.availability == 1.0
        assert baseline.denm_delivery_rate == 1.0
        assert outage.count(NO_STOP) == 3
        assert outage.availability == 0.0
        table = render_matrix(result)
        assert "baseline" in table and "outage" in table
        assert table.count("\n") >= 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFaultsCli:
    def test_list_plans(self, capsys):
        from repro.cli import main

        assert main(["faults", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "spurious_denm" in out

    def test_matrix_smoke(self, capsys):
        from repro.cli import main

        code = main(["faults", "--runs", "1",
                     "--start-distance", "4.0",
                     "--plan", "baseline", "--plan", "spurious_denm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spurious_denm" in out
        assert "availability" in out

    def test_backend_queue_reaches_the_engine(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["faults", "--runs", "1", "--start-distance", "4.0",
                "--plan", "baseline"]
        assert main(argv) == 0
        pool_out = capsys.readouterr().out
        qdir = tmp_path / "q"
        assert main(argv + ["--backend", "queue",
                            "--queue-dir", str(qdir)]) == 0
        assert capsys.readouterr().out == pool_out
        # The plan's population really ran on the work queue.
        assert (qdir / "plan-0" / "queue.sqlite").exists()

    def test_unknown_plan_fails_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown fault plan"):
            main(["faults", "--plan", "gremlins"])

    def test_plan_file(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan("custom_ghost", (SpuriousDenm(start=1.0),))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        code = main(["faults", "--runs", "1",
                     "--start-distance", "4.0",
                     "--plan", "baseline",
                     "--plan-file", str(path)])
        assert code == 0
        assert "custom_ghost" in capsys.readouterr().out
