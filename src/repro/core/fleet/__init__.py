"""Fleet-scale scenarios: many OBUs, multiple RSUs, one channel."""

from repro.core.fleet.campaign import run_fleet_sweep
from repro.core.fleet.result import (
    FleetCampaignResult,
    FleetRunResult,
    canonical_json,
    fleet_runs_digest,
)
from repro.core.fleet.scenario import (
    FLEET_FORMAT,
    FleetScenario,
    beacon_fleet,
    blind_corner_fleet,
    convoy_fleet,
    fleet_fingerprint,
    golden_scenario,
)
from repro.core.fleet.testbed import FleetTestbed, run_fleet

__all__ = [
    "FLEET_FORMAT",
    "FleetCampaignResult",
    "FleetRunResult",
    "FleetScenario",
    "FleetTestbed",
    "beacon_fleet",
    "blind_corner_fleet",
    "canonical_json",
    "convoy_fleet",
    "fleet_fingerprint",
    "fleet_runs_digest",
    "golden_scenario",
    "run_fleet",
    "run_fleet_sweep",
]
