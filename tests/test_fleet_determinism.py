"""Fleet bit-identity: workers, tie-break policies, golden fixture.

The acceptance bar for the fleet layer: a 32-OBU / 2-RSU campaign over
three seeds must produce byte-identical canonical results across
``workers=1`` vs ``workers=4`` and across all three kernel tie-break
policies, with the congestion actually visible (non-zero ``net.cbr``
samples and DCC state transitions in the observability export).
"""

import dataclasses
import json
import os

import pytest

from repro.core.campaign import run_campaign_parallel
from repro.core.fleet import (
    FleetScenario,
    canonical_json,
    golden_scenario,
    run_fleet,
    run_fleet_sweep,
)
from repro.obs import ObsAggregate

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fleet_16obu_seed1.json")

ACCEPTANCE = FleetScenario(n_obus=32, n_rsus=2, duration=5.0)


class TestWorkerBitIdentity:
    def test_32_obu_campaign_identical_across_workers_and_obs(self):
        obs_serial = ObsAggregate()
        serial = run_campaign_parallel(ACCEPTANCE, runs=3, workers=1,
                                       obs=obs_serial)
        obs_pool = ObsAggregate()
        pooled = run_campaign_parallel(ACCEPTANCE, runs=3, workers=4,
                                       obs=obs_pool)
        assert serial.digest() == pooled.digest()
        assert (canonical_json(serial.to_dict())
                == canonical_json(pooled.to_dict()))
        # The instrumented aggregates merge exactly: identical metric
        # and span content whichever pool executed the runs.
        serial_dict, pool_dict = obs_serial.to_dict(), obs_pool.to_dict()
        for key in ("metrics", "spans", "runs", "cached_runs"):
            assert serial_dict[key] == pool_dict[key], key
        # The congestion is real: CBR was sampled and DCC moved.
        metrics = serial_dict["metrics"]
        cbr_keys = [k for k in metrics if k.startswith("net.cbr")]
        transition_keys = [k for k in metrics
                           if k.startswith("dcc.state_transitions")]
        assert cbr_keys
        assert transition_keys
        assert all(run.total_dcc_transitions > 0 for run in serial.runs)
        assert all(run.mean_cbr > 0.0 for run in serial.runs)

    def test_sweep_shares_seeds_across_sizes(self):
        sweep = run_fleet_sweep(
            [2, 4], FleetScenario(n_obus=2, duration=4.0), runs=2)
        assert sorted(sweep) == [2, 4]
        for n_obus, campaign in sweep.items():
            assert [r.seed for r in campaign.runs] == [1, 2]
            assert all(r.n_obus == n_obus for r in campaign.runs)


class TestTieBreakInvariance:
    @pytest.mark.parametrize("policy", ["lifo", "seeded"])
    def test_policy_matches_fifo(self, policy):
        fifo = run_fleet(ACCEPTANCE)
        other = run_fleet(
            dataclasses.replace(ACCEPTANCE, tie_break=policy))
        assert (canonical_json(fifo.to_dict())
                == canonical_json(other.to_dict()))

    def test_three_seed_campaign_identical_across_policies(self):
        digests = set()
        for policy in ("fifo", "lifo", "seeded"):
            scenario = dataclasses.replace(
                FleetScenario(n_obus=12, n_rsus=2, duration=4.0),
                tie_break=policy)
            digests.add(
                run_campaign_parallel(scenario, runs=3).digest())
        assert len(digests) == 1

    def test_convoy_workload_tie_invariant(self):
        base = FleetScenario(n_obus=8, workload="convoy",
                             convoy_members=3, duration=6.0)
        results = {
            policy: canonical_json(run_fleet(
                dataclasses.replace(base, tie_break=policy)).to_dict())
            for policy in ("fifo", "lifo", "seeded")
        }
        assert len(set(results.values())) == 1


class TestGoldenFixture:
    def test_golden_16_obu_scenario_reproduces_fixture(self):
        golden = golden_scenario()
        campaign = run_campaign_parallel(golden, runs=1,
                                         base_seed=golden.seed)
        produced = canonical_json(campaign.to_dict()) + "\n"
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            pinned = handle.read()
        assert produced == pinned, (
            "the 16-OBU golden fleet run changed; if intentional, "
            "regenerate with `repro-testbed fleet --update-golden`")

    def test_golden_fixture_is_canonical_json(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
        assert canonical_json(payload) + "\n" == text
        assert payload["scenario"]["n_obus"] == 16
        assert payload["scenario"]["n_rsus"] == 2
        assert payload["runs"][0]["verdict"] == "SAFE"
        assert payload["runs"][0]["denm_delivered"] == 16


@pytest.mark.slow
class TestLargeFleetBitIdentity:
    def test_64_obu_identical_across_policies(self):
        base = FleetScenario(n_obus=64, n_rsus=4, duration=4.0)
        digests = {
            policy: canonical_json(run_fleet(
                dataclasses.replace(base, tie_break=policy)).to_dict())
            for policy in ("fifo", "lifo", "seeded")
        }
        assert len(set(digests.values())) == 1
