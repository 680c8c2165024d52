"""One campaign engine over the scenario-family table.

:func:`repro.core.campaign.run_campaign_parallel` runs both families
(emergency brake and fleet) through the same inline and pool paths.
This file pins what must hold for *every* family:

* argument validation (negative runs or workers, ``workers=0`` = one
  pool worker per core);
* progress streams :class:`~repro.core.campaign.RunOutcome` records;
* a store body that does not decode is a miss, never an error;
* a re-run resumes from whichever runs the store holds, and the
  order in which pool runs complete never reaches the result or the
  observability fold;
* cache keys are byte-stable: the pinned values below address runs
  stored by earlier versions, so existing stores keep serving hits.
"""

import concurrent.futures
import itertools
import os

import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import (
    FAMILIES,
    family_of,
    run_campaign_parallel,
)
from repro.core.fleet.scenario import FleetScenario
from repro.core.scenario import EmergencyBrakeScenario
from repro.faults.catalogue import plans_by_name
from repro.obs import ObsAggregate

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


#: Runs per campaign in the resume and completion-order tests.
RUNS = 3


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Per family: an instrumented serial campaign, its obs
    ``sim_digest`` and the store it filled."""
    built = {}
    for name, scenario in sorted(SCENARIOS.items()):
        cache_dir = str(tmp_path_factory.mktemp(f"ref-{name}"))
        obs = ObsAggregate()
        campaign = run_campaign_parallel(scenario, runs=RUNS, workers=1,
                                         obs=obs, cache_dir=cache_dir)
        built[name] = (campaign, obs.sim_digest(),
                       ArtifactStore(cache_dir))
    return built


def malformed_bodies(family, result):
    """Store bodies that carry no decodable result of *family*."""
    good = result.to_dict()
    first = sorted(good)[0]
    return {
        "empty": {},
        "kind_only": {"kind": family.name},
        "wrong_field": {"kind": family.name, "other": good},
        "field_none": {"kind": family.name, family.body_field: None},
        "field_str": {"kind": family.name, family.body_field: "x"},
        "field_list": {"kind": family.name, family.body_field: []},
        "field_empty": {"kind": family.name, family.body_field: {}},
        f"missing_{first}": {
            "kind": family.name,
            family.body_field: {k: v for k, v in good.items()
                                if k != first}},
    }


class TestDecode:
    """A body that does not decode is a miss, never an exception."""

    @pytest.mark.parametrize("case", [
        "empty", "kind_only", "wrong_field", "field_none", "field_str",
        "field_list", "field_empty", "missing"])
    def test_malformed_body_is_a_miss(self, scenario, case, references):
        family = family_of(scenario)
        result = references[family.name][0].runs[0]
        bodies = malformed_bodies(family, result)
        [name] = [n for n in bodies if n.startswith(case)]
        assert family.decode(bodies[name], run_id=1) is None
        assert family.decode(family.body(result), run_id=1).to_dict() \
            == result.to_dict()

    @pytest.mark.parametrize("field", [
        "cbr", "dcc_final_state", "dcc_state_transitions",
        "denm_latency_ms", "medium"])
    def test_fleet_mapping_field_of_wrong_type_is_a_miss(self, field,
                                                         references):
        family = FAMILIES["fleet"]
        run = references["fleet"][0].runs[0].to_dict()
        assert isinstance(run[field], dict)
        run[field] = "garbage"
        assert family.decode({"kind": "fleet", "run": run},
                             run_id=1) is None


def subset_id(stored):
    return "-".join(map(str, stored)) or "none"


class TestResume:
    """A re-run simulates only what the store lacks."""

    @pytest.mark.parametrize("stored", [
        subset for size in range(RUNS + 1)
        for subset in itertools.combinations(range(1, RUNS + 1), size)],
        ids=subset_id)
    def test_resumes_from_any_stored_subset(self, scenario, stored,
                                            references, tmp_path):
        family = family_of(scenario)
        campaign, _, reference = references[family.name]
        store = ArtifactStore(str(tmp_path))
        keys = {run_id: family.key(scenario.with_seed(run_id), None, None)
                for run_id in range(1, RUNS + 1)}
        for run_id in stored:
            store.put(keys[run_id], reference.get(keys[run_id]))
        before = {run_id: open(store.path(keys[run_id]), "rb").read()
                  for run_id in stored}

        cached = {}
        resumed = run_campaign_parallel(
            scenario, runs=RUNS, workers=2, cache_dir=str(tmp_path),
            progress=lambda o, d, t: cached.update({o.run_id: o.cached}))
        assert cached == {run_id: run_id in stored
                          for run_id in range(1, RUNS + 1)}
        assert resumed.digest() == campaign.digest()
        assert sorted(store.keys()) == sorted(keys.values())
        for run_id, payload in before.items():
            assert open(store.path(keys[run_id]), "rb").read() == payload


class TestCompletionOrder:
    """Pool runs may finish in any order; nothing downstream sees it."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(RUNS))),
        ids=lambda order: "-".join(map(str, order)))
    def test_any_completion_order_folds_identically(
            self, scenario, order, references, monkeypatch):
        real_wait = concurrent.futures.wait

        def in_order(futures):
            # The engine submits in run_id order; finish all, then
            # hand them back permuted.
            futures = list(futures)
            real_wait(futures)
            return [futures[index] for index in order]

        monkeypatch.setattr(concurrent.futures, "as_completed", in_order)
        events = []
        obs = ObsAggregate()
        result = run_campaign_parallel(
            scenario, runs=RUNS, workers=2, obs=obs,
            progress=lambda o, d, t: events.append((o.run_id, d)))
        assert events == [(index + 1, done + 1)
                          for done, index in enumerate(order)]
        campaign, obs_digest, _ = references[family_of(scenario).name]
        assert result.digest() == campaign.digest()
        assert obs.sim_digest() == obs_digest
        assert obs.runs == RUNS


class TestCacheKeys:
    """Pinned keys: stored runs stay addressable across refactors."""

    def test_brake_key(self):
        key = FAMILIES["brake"].key(
            EmergencyBrakeScenario(start_distance=4.0).with_seed(3),
            plans_by_name()["rsu_outage"], "s")
        assert key == ("0850dc279f107507a258dc2f577e121f"
                       "df8fa73c62dc7b92b004153603cdaae8")

    def test_fleet_key(self):
        key = FAMILIES["fleet"].key(FleetScenario(n_obus=4).with_seed(5),
                                    None, None)
        assert key == ("b41781609fcfccd199810ec5e3f0cc39"
                       "9722d52b154ab71c5fec789af83a84be")
