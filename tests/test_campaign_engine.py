"""Tests for the parallel campaign execution engine.

Four invariants of :mod:`repro.core.campaign`:

* serial and parallel campaigns yield bit-identical populations;
* every run is deterministic in its seed (the property the
  equivalence rests on);
* the on-disk run cache (the artifact store plus the family's
  decode) is transparent -- hits return the identical measurement,
  any config change invalidates the key, corruption and undecodable
  bodies fall back to recomputation;
* the artifact store is the campaign's durable state: a pool
  campaign SIGKILLed mid-run resumes from the runs it stored and
  folds to the digest of an uninterrupted serial run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EmergencyBrakeScenario,
    ScaleTestbed,
    run_campaign,
    run_campaign_parallel,
    scenario_fingerprint,
)
from repro.core.artifacts import ArtifactStore, CACHE_FORMAT, body_digest
from repro.core.campaign import FAMILIES
from repro.sim.randomness import RandomStreams

#: A short scenario so each test run stays fast.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)

BRAKE = FAMILIES["brake"]


def as_dicts(result):
    """The canonical bit-exact form of a campaign's population."""
    return [measurement.to_dict() for measurement in result.runs]


class TestSerialParallelEquivalence:
    """workers=N must be indistinguishable from workers=1."""

    def test_six_runs_bit_identical(self):
        serial = run_campaign_parallel(FAST, runs=6, base_seed=11,
                                       workers=1)
        parallel = run_campaign_parallel(FAST, runs=6, base_seed=11,
                                         workers=4)
        # Every RunMeasurement field -- step timelines included --
        # compares equal bit for bit.
        assert as_dicts(serial) == as_dicts(parallel)
        # And so does everything aggregated from them.
        assert serial.table2() == parallel.table2()
        assert list(serial.braking_distances()) == \
            list(parallel.braking_distances())
        assert list(serial.total_delays_ms()) == \
            list(parallel.total_delays_ms())

    def test_population_ordered_by_run_id(self):
        result = run_campaign_parallel(FAST, runs=5, base_seed=2,
                                       workers=3)
        assert [run.run_id for run in result.runs] == [1, 2, 3, 4, 5]

    def test_serial_wrapper_matches_engine(self):
        wrapper = run_campaign(FAST, runs=3, base_seed=7)
        engine = run_campaign_parallel(FAST, runs=3, base_seed=7,
                                       workers=1)
        assert as_dicts(wrapper) == as_dicts(engine)

    def test_progress_streams_every_run(self):
        events = []

        def progress(outcome, done, total):
            events.append((outcome.run_id, outcome.cached, done, total))

        run_campaign_parallel(FAST, runs=3, base_seed=5, workers=1,
                              progress=progress)
        assert len(events) == 3
        assert [done for _, _, done, _ in events] == [1, 2, 3]
        assert all(total == 3 for _, _, _, total in events)
        assert not any(cached for _, cached, _, _ in events)
        assert sorted(run_id for run_id, _, _, _ in events) == [1, 2, 3]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_campaign_parallel(FAST, runs=2, workers=-1)
        with pytest.raises(ValueError, match="runs"):
            run_campaign_parallel(FAST, runs=-1)

    def test_workers_zero_means_auto(self):
        # 0 = one worker per core; a one-run campaign exercises the
        # resolution without paying for a real pool fan-out.
        result = run_campaign_parallel(FAST, runs=1, workers=0)
        assert len(result.runs) == 1
        assert result.runs[0].completed

    def test_zero_runs_is_empty_campaign(self):
        result = run_campaign_parallel(FAST, runs=0, workers=2)
        assert result.runs == []


class TestDeterminismProperty:
    """Same seed => same world; different seed => different draws."""

    SCENARIO = EmergencyBrakeScenario(start_distance=3.5, timeout=12.0)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_same_seed_identical_run(self, seed):
        scenario = self.SCENARIO.with_seed(seed)
        first = ScaleTestbed(scenario, run_id=1).run()
        second = ScaleTestbed(scenario, run_id=1).run()
        assert first.timeline.to_dict() == second.timeline.to_dict()
        assert first.to_dict() == second.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_different_seeds_distinct_propagation_draws(self, a, b):
        if a == b:
            return
        draws_a = RandomStreams(a).get("medium").uniform(size=8)
        draws_b = RandomStreams(b).get("medium").uniform(size=8)
        assert list(draws_a) != list(draws_b)

    def test_serialisation_round_trips_exactly(self):
        from repro.core.measurement import RunMeasurement

        measurement = ScaleTestbed(self.SCENARIO.with_seed(9),
                                   run_id=4).run()
        clone = RunMeasurement.from_dict(
            json.loads(json.dumps(measurement.to_dict())))
        assert clone.to_dict() == measurement.to_dict()
        assert clone.intervals_ms() == measurement.intervals_ms()


class TestScenarioFingerprint:
    def test_stable_across_constructions(self):
        assert scenario_fingerprint(EmergencyBrakeScenario(seed=4)) == \
            scenario_fingerprint(EmergencyBrakeScenario(seed=4))

    def test_seed_changes_key(self):
        scenario = EmergencyBrakeScenario()
        assert scenario_fingerprint(scenario.with_seed(1)) != \
            scenario_fingerprint(scenario.with_seed(2))

    def test_any_scenario_field_changes_key(self):
        import dataclasses

        base = EmergencyBrakeScenario()
        variants = [
            dataclasses.replace(base, action_distance=1.60),
            dataclasses.replace(base, start_distance=5.0),
            dataclasses.replace(base, obu_poll_interval=0.02),
            dataclasses.replace(base, secured=True),
            dataclasses.replace(base, radio="5g"),
        ]
        keys = {scenario_fingerprint(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_nested_config_changes_key(self):
        import dataclasses

        from repro.roadside.yolo import YoloConfig

        base = EmergencyBrakeScenario()
        tweaked = dataclasses.replace(
            base, yolo=YoloConfig(inference_mean=0.1))
        assert scenario_fingerprint(base) != scenario_fingerprint(tweaked)


class TestRunCache:
    def test_round_trip_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        measurement = ScaleTestbed(FAST.with_seed(3), run_id=1).run()
        store.put("k", BRAKE.body(measurement))
        loaded = BRAKE.decode(store.get("k"), run_id=1)
        assert loaded is not None
        assert loaded.to_dict() == measurement.to_dict()

    def test_miss_returns_none(self, tmp_path):
        assert BRAKE.decode(ArtifactStore(str(tmp_path)).get("nope"),
                            run_id=1) is None

    def test_undecodable_entry_is_a_miss(self, tmp_path):
        # A body that verifies but holds no measurement (here: a fleet
        # body under a brake key) decodes to None, and the campaign
        # recomputes it instead of failing.
        key = scenario_fingerprint(FAST.with_seed(3))
        store = ArtifactStore(str(tmp_path))
        store.put(key, {"kind": "fleet", "run": {"run_id": 1}})
        assert BRAKE.decode(store.get(key), run_id=1) is None
        events = []
        result = run_campaign_parallel(
            FAST, runs=1, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [False]
        assert BRAKE.decode(store.get(key), run_id=1).to_dict() == \
            result.runs[0].to_dict()

    def test_campaign_cache_hit_skips_simulation(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=3, base_seed=3,
                                     workers=1, cache_dir=str(tmp_path))
        events = []
        warm = run_campaign_parallel(
            FAST, runs=3, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True, True]
        assert as_dicts(warm) == as_dicts(cold)

    def test_cache_shared_between_worker_counts(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=3, base_seed=3,
                                     workers=2, cache_dir=str(tmp_path))
        events = []
        warm = run_campaign_parallel(
            FAST, runs=3, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True, True]
        assert as_dicts(warm) == as_dicts(cold)

    def test_scenario_change_misses(self, tmp_path):
        import dataclasses

        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        moved = dataclasses.replace(FAST, action_distance=1.60)
        events = []
        run_campaign_parallel(moved, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path),
                              progress=lambda o, d, t:
                              events.append(o.cached))
        assert events == [False, False]

    def test_different_base_seed_misses(self, tmp_path):
        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        events = []
        run_campaign_parallel(FAST, runs=2, base_seed=100, workers=1,
                              cache_dir=str(tmp_path),
                              progress=lambda o, d, t:
                              events.append(o.cached))
        assert events == [False, False]

    def test_corrupt_entry_recomputes(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                     workers=1, cache_dir=str(tmp_path))
        key = scenario_fingerprint(FAST.with_seed(3))
        store = ArtifactStore(str(tmp_path))
        with open(store.path(key), "w", encoding="utf-8") as handle:
            handle.write("{ not json !!")
        events = []
        again = run_campaign_parallel(
            FAST, runs=2, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append((o.run_id, o.cached)))
        # Run 1 (the corrupted entry) was recomputed, run 2 was a hit;
        # either way the population is unchanged.
        assert dict(events) == {1: False, 2: True}
        assert as_dicts(again) == as_dicts(cold)
        # The recompute healed the corrupt entry.
        assert BRAKE.decode(store.get(key), run_id=1) is not None

    def test_wrong_format_version_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        measurement = ScaleTestbed(FAST.with_seed(3), run_id=1).run()
        store.put("k", BRAKE.body(measurement))
        with open(store.path("k"), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = CACHE_FORMAT + 1
        with open(store.path("k"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert BRAKE.decode(store.get("k"), run_id=1) is None

    def test_v4_flat_entry_is_ignored_and_left_untouched(
            self, tmp_path):
        # Pre-v5 caches stored one flat <key>.json per fingerprint in
        # the cache root; the sharded store never reads them, never
        # rewrites them, and recomputes into objects/ instead.
        key = scenario_fingerprint(FAST.with_seed(3))
        legacy = tmp_path / f"{key}.json"
        legacy.write_text(json.dumps(
            {"format": CACHE_FORMAT - 1, "version": "0.0",
             "payload": {"stale": True}}))
        before = legacy.read_bytes()
        events = []
        result = run_campaign_parallel(
            FAST, runs=1, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [False]  # the legacy entry is a miss
        assert legacy.read_bytes() == before  # ... and untouched
        store = ArtifactStore(str(tmp_path))
        assert store.get(key) is not None  # recompute landed in v5
        assert os.path.relpath(store.path(key),
                               str(tmp_path)).startswith("objects")
        # A second campaign replays from the migrated entry.
        warm_events = []
        warm = run_campaign_parallel(
            FAST, runs=1, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: warm_events.append(o.cached))
        assert warm_events == [True]
        assert as_dicts(warm) == as_dicts(result)

    def test_creates_nested_cache_dir(self, tmp_path):
        nested = os.path.join(str(tmp_path), "a", "b")
        run_campaign_parallel(FAST, runs=1, base_seed=3, workers=1,
                              cache_dir=nested)
        assert os.path.isdir(nested)
        assert len(ArtifactStore(nested).keys()) == 1

    def test_no_stray_temp_files(self, tmp_path):
        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        # Every *file* anywhere under the store is a committed .json
        # entry -- atomic writes leave no temp files behind.
        for root, _dirs, files in os.walk(str(tmp_path)):
            assert all(name.endswith(".json") for name in files), \
                (root, files)


class TestArtifactStore:
    def test_round_trip_and_sharded_layout(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ab" + "0" * 62
        body = {"kind": "brake", "measurement": {"x": 1.5}}
        path = store.put(key, body)
        assert path == os.path.join(
            str(tmp_path), "objects", "ab", f"{key}.json")
        assert store.get(key) == body
        assert store.has(key)
        assert store.keys() == [key]

    def test_missing_key_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("00" * 32) is None
        assert not store.has("00" * 32)

    def test_corrupt_body_fails_verification(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "cd" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["body"]["value"] = 2  # digest now stale
        with open(store.path(key), "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None

    def test_wrong_format_version_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ef" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["format"] = CACHE_FORMAT + 1
        with open(store.path(key), "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None

    def test_truncated_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "0a" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "w", encoding="utf-8") as handle:
            handle.write('{"format": 5, "sha')
        assert store.get(key) is None

    def test_overwrite_is_idempotent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "1b" + "0" * 62
        store.put(key, {"value": 1})
        store.put(key, {"value": 1})
        assert store.keys() == [key]
        assert store.get(key) == {"value": 1}

    def test_body_digest_is_canonical(self):
        assert body_digest({"b": 1, "a": 2}) == \
            body_digest({"a": 2, "b": 1})


#: The child of the crash test: a cached two-worker pool campaign
#: whose progress callback marks the second stored run and then
#: blocks, so the kill lands with exactly two entries on disk
#: (``finish`` stores a run before it reports progress).
CRASH_CHILD = textwrap.dedent("""
    import sys
    import threading

    from repro.core import EmergencyBrakeScenario, run_campaign_parallel

    cache_dir, marker = sys.argv[1:3]

    def progress(outcome, done, total):
        if done == 2:
            with open(marker, "w") as handle:
                handle.write("stored 2")
            threading.Event().wait()

    run_campaign_parallel(
        EmergencyBrakeScenario(start_distance=4.0, timeout=15.0),
        runs=8, workers=2, cache_dir=cache_dir, progress=progress)
""")


class TestKilledCampaignResumes:
    """The artifact store is the only durable state a campaign needs."""

    def test_sigkilled_pool_campaign_resumes_to_serial_digest(
            self, tmp_path):
        import repro

        cache_dir = str(tmp_path / "cache")
        marker = str(tmp_path / "marker")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", CRASH_CHILD, cache_dir, marker],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 300.0
            while not os.path.exists(marker):
                assert child.poll() is None, child.stderr.read()
                assert time.monotonic() < deadline, "child never stored"
                time.sleep(0.05)
        finally:
            # The session holds the pool workers too: kill them all.
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=60)
            child.stderr.close()
        assert child.returncode == -signal.SIGKILL
        assert len(ArtifactStore(cache_dir).keys()) == 2

        cached = []
        resumed = run_campaign_parallel(
            FAST, runs=8, workers=2, cache_dir=cache_dir,
            progress=lambda o, d, t: cached.append(o.cached))
        assert sum(cached) >= 2
        assert len(cached) == 8
        assert resumed.digest() == run_campaign_parallel(
            FAST, runs=8, workers=1).digest()
