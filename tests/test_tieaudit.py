"""The tie-permutation audit: blind-corner must be bit-identical
under every tie-break policy (the regression the SCH suppressions in
``src/`` lean on)."""

import dataclasses

import pytest

from repro.core.blind_corner import BlindCornerScenario
from repro.core.fingerprint import canonical_json
from repro.core.platoon import PlatoonScenario, run_platoon
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.core.tieaudit import (
    TieAuditReport,
    result_digest,
    run_tie_audit,
)


def test_blind_corner_is_bit_identical_across_policies():
    report = run_tie_audit(BlindCornerScenario(seed=1))
    assert [run.policy for run in report.runs] == \
        ["fifo", "lifo", "seeded"]
    assert report.identical, \
        {run.policy: run.digest for run in report.runs}
    # Ties really happen (the audit is not vacuous) and carry the
    # static site-id format the SCH rules report.
    assert report.ties_observed > 0
    pairs = report.top_pairs(5)
    assert pairs
    for site_a, site_b, count in pairs:
        assert count > 0
        for site in (site_a, site_b):
            path, _, line = site.rpartition(":")
            assert path.startswith("src/repro/")
            assert line.isdigit()
    # The digest is the canonical-JSON hash of the result.
    first = report.runs[0]
    assert first.digest == result_digest(first.result)
    payload = report.to_dict()
    assert payload["identical"] is True
    assert len(payload["runs"]) == 3
    # The report round-trips through its dict form, with the verdict
    # recomputed from the run digests.
    clone = TieAuditReport.from_dict(payload)
    assert clone.identical
    assert clone.scenario == report.scenario
    assert [run.digest for run in clone.runs] == \
        [run.digest for run in report.runs]
    assert clone.runs[0].audit.ties == report.ties_observed


def _without_tie_break(payload):
    if isinstance(payload, dict):
        return {key: _without_tie_break(value)
                for key, value in payload.items() if key != "tie_break"}
    if isinstance(payload, list):
        return [_without_tie_break(value) for value in payload]
    return payload


def _paper(seed, policy, **fields):
    scenario = EmergencyBrakeScenario(seed=seed, tie_break=policy,
                                      **fields)
    return ScaleTestbed(scenario).run().to_dict()


def _platoon(seed, policy, interface):
    return dataclasses.asdict(run_platoon(PlatoonScenario(
        leader_interface=interface, seed=seed, tie_break=policy)))


TESTBED_CASES = {
    "paper": lambda seed, policy: _paper(seed, policy),
    "paper-push-predictive-repeat": lambda seed, policy: _paper(
        seed, policy, obu_push=True, hazard_mode="predictive",
        denm_repetition_interval=0.1, denm_repetition_duration=0.5),
    "platoon-its_g5": lambda seed, policy: _platoon(seed, policy,
                                                    "its_g5"),
    "platoon-5g_leader": lambda seed, policy: _platoon(seed, policy,
                                                       "5g_leader"),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(TESTBED_CASES))
def test_testbed_is_bit_identical_across_policies(case, seed):
    results = {
        policy: canonical_json(_without_tie_break(
            TESTBED_CASES[case](seed, policy)))
        for policy in ("fifo", "lifo", "seeded")
    }
    assert len(set(results.values())) == 1, sorted(results)
