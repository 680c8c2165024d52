"""One campaign engine over the scenario-family table.

:func:`repro.core.campaign.run_campaign_parallel` runs both families
(emergency brake and fleet) through the same inline, pool and queue
paths.  This file pins what must hold for *every* family:

* argument validation (negative runs or workers, ``workers=0`` = one
  pool worker per core);
* progress streams :class:`~repro.core.campaign.RunOutcome` records;
* queue item ids and result keys are byte-stable: the pinned values
  below were minted by the per-family enqueue functions the engine
  replaced, so queues written by earlier versions still resume and
  fold.
"""

import concurrent.futures
import dataclasses
import os

import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import (
    FAMILIES,
    family_of,
    run_campaign_parallel,
    scenario_fingerprint,
)
from repro.core.fleet.scenario import FleetScenario, fleet_fingerprint
from repro.core.queue import QueueItem, WorkQueue, enqueue_campaign
from repro.core.queue.backend import item_identity
from repro.core.queue.campaign import (
    drive_queue,
    fold_queue_campaign,
    queue_paths,
)
from repro.core.scenario import EmergencyBrakeScenario
from repro.faults.catalogue import plans_by_name

#: One small scenario per family, so each test run stays fast.
SCENARIOS = {
    "brake": EmergencyBrakeScenario(start_distance=4.0, timeout=15.0),
    "fleet": FleetScenario(n_obus=2, duration=3.0),
}


@pytest.fixture(params=sorted(SCENARIOS))
def scenario(request):
    return SCENARIOS[request.param]


class TestFamilyTable:
    def test_two_families_keyed_by_name(self):
        assert sorted(FAMILIES) == ["brake", "fleet"]
        for name, family in FAMILIES.items():
            assert family.name == name

    def test_family_follows_scenario_type(self, scenario):
        family = family_of(scenario)
        assert isinstance(scenario, family.scenario_type)

    def test_unknown_scenario_type_rejected(self):
        with pytest.raises(TypeError, match="no scenario family"):
            run_campaign_parallel(object(), runs=1)


class TestValidation:
    """The engine validates both families the same way."""

    def test_negative_runs_rejected(self, scenario):
        with pytest.raises(ValueError, match="runs"):
            run_campaign_parallel(scenario, runs=-1)

    def test_negative_workers_rejected(self, scenario):
        with pytest.raises(ValueError, match="workers"):
            run_campaign_parallel(scenario, runs=1, workers=-3)

    def test_workers_zero_pools_one_worker_per_core(self, scenario,
                                                    monkeypatch):
        sizes = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        class SpyPool(real_pool):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SpyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        auto = run_campaign_parallel(scenario, runs=2, workers=0)
        assert sizes == [2]
        serial = run_campaign_parallel(scenario, runs=2, workers=1)
        assert sizes == [2]  # workers=1 stays inline
        assert auto.digest() == serial.digest()

    def test_fleet_rejects_fault_plan_and_salt(self):
        fleet = SCENARIOS["fleet"]
        with pytest.raises(ValueError, match="no fault plan"):
            run_campaign_parallel(
                fleet, runs=1, fault_plan=plans_by_name()["rsu_outage"])
        with pytest.raises(ValueError, match="no fault plan"):
            run_campaign_parallel(fleet, runs=1, cache_salt="x")


class TestProgressAndCache:
    def test_progress_reports_run_outcomes(self, scenario, tmp_path):
        events = []
        cold = run_campaign_parallel(
            scenario, runs=2, cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(
                (o.run_id, o.seed, o.cached, o.result.run_id)))
        assert sorted(events) == [(1, 1, False, 1), (2, 2, False, 2)]
        events.clear()
        warm = run_campaign_parallel(
            scenario, runs=2, cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(
                (o.run_id, o.seed, o.cached, o.result.run_id)))
        assert sorted(events) == [(1, 1, True, 1), (2, 2, True, 2)]
        assert warm.digest() == cold.digest()

    def test_cache_hit_rebinds_run_id(self, scenario, tmp_path):
        # Seeds 2..3 cached as runs 1..2 replay as runs 2..3 of a
        # campaign starting at seed 1.
        run_campaign_parallel(scenario, runs=2, base_seed=2,
                              cache_dir=str(tmp_path))
        shifted = run_campaign_parallel(scenario, runs=3, base_seed=1,
                                        cache_dir=str(tmp_path))
        assert [run.run_id for run in shifted.runs] == [1, 2, 3]
        assert shifted.digest() == run_campaign_parallel(
            scenario, runs=3, base_seed=1).digest()

    def test_store_body_layout(self, scenario, tmp_path):
        family = family_of(scenario)
        run_campaign_parallel(scenario, runs=1, cache_dir=str(tmp_path))
        store = ArtifactStore(str(tmp_path))
        [key] = store.keys()
        assert key == family.key(scenario.with_seed(1), None, None)
        body = store.get(key)
        assert sorted(body) == sorted(["kind", family.body_field])
        assert body["kind"] == family.name


class TestQueueIdentity:
    """Pinned ids: the refactor must not re-key existing queues."""

    def test_brake_item_id_and_result_key(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        enqueue_campaign(
            queue, EmergencyBrakeScenario(start_distance=4.0), runs=1,
            base_seed=3, fault_plan=plans_by_name()["rsu_outage"],
            cache_salt="s")
        [item] = queue.items()
        queue.close()
        assert item["item_id"] == ("9e8183bf0915ff40833bee4d586e196b"
                                   "d20eebcca2d022b0611b230f3dadd4c6")
        assert item["payload"]["result_key"] == (
            "0850dc279f107507a258dc2f577e121f"
            "df8fa73c62dc7b92b004153603cdaae8")

    def test_fleet_item_id_and_result_key(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        enqueue_campaign(queue, FleetScenario(n_obus=4), runs=1,
                         base_seed=5, observe=True)
        [item] = queue.items()
        queue.close()
        assert item["item_id"] == ("6cd447182e62932ce4576fcd468a6fc8"
                                   "49f359b6efdfb4f5265f7672d26c1205")
        assert item["payload"]["result_key"] == (
            "b41781609fcfccd199810ec5e3f0cc39"
            "9722d52b154ab71c5fec789af83a84be")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_queue_in_the_earlier_layout_folds(self, name, tmp_path):
        # Items and meta exactly as the per-family enqueue functions
        # wrote them: brake payloads carry "fault_plan" and the meta a
        # "cache_salt"; fleet payloads and meta carry neither.
        scenario = SCENARIOS[name]
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        items = []
        for index in range(2):
            run_scenario = scenario.with_seed(1 + index)
            if name == "brake":
                payload = {
                    "scenario": dataclasses.asdict(run_scenario),
                    "fault_plan": None,
                    "result_key": scenario_fingerprint(run_scenario),
                }
            else:
                payload = {
                    "scenario": run_scenario.to_dict(),
                    "result_key": fleet_fingerprint(run_scenario),
                }
            payload.update(run_id=index + 1, plan_index=0,
                           observe=False)
            items.append(QueueItem(item_id=item_identity(name, payload),
                                   kind=name, payload=payload))
        meta = {"family": name, "runs": 2, "base_seed": 1,
                "observe": False,
                "scenario": FAMILIES[name].scenario_to_dict(scenario)}
        if name == "brake":
            meta["cache_salt"] = None
        queue.set_meta("campaign", meta)
        assert queue.enqueue(items, max_attempts=3) == 2
        # Re-enqueueing through the engine inserts nothing: same ids.
        assert enqueue_campaign(queue, scenario, runs=2) == 0
        drive_queue(queue, paths["queue"], paths["store"], workers=1)
        folded = fold_queue_campaign(queue, ArtifactStore(paths["store"]))
        queue.close()
        assert folded.digest() == run_campaign_parallel(
            scenario, runs=2).digest()
