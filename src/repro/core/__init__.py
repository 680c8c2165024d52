"""The testbed core: scenario assembly and end-to-end measurement.

This package is the paper's contribution: a laboratory testbed that
characterises the *entire* detection-to-action delay of a
network-aided safety function, not just the communication hop.

* :mod:`repro.core.measurement` -- the step-1..6 timeline of Figure 4
  and interval computation (Table II's rows);
* :mod:`repro.core.scenario` -- experiment geometry and parameters;
* :mod:`repro.core.testbed` -- the assembled emergency-braking
  testbed (Figure 8) and the serial campaign wrapper;
* :mod:`repro.core.campaign` -- the campaign engine: one executor
  for every scenario family (inline or process pool), run caching,
  streamed progress;
* :mod:`repro.core.latency` -- empirical distribution functions
  (Figure 11), summary statistics, distribution fitting;
* :mod:`repro.core.braking` -- braking-distance analysis (Table III)
  and the scale -> full-size mapping model;
* :mod:`repro.core.blind_corner` -- the blind-corner intersection
  with the onboard-only baseline (the use-case's motivation);
* :mod:`repro.core.platoon` -- the platooning / multi-technology
  future-work extension;
* :mod:`repro.core.fleet` -- fleet-scale scenarios: N OBUs and M RSUs
  congesting one channel, with CBR-driven DCC and campaign sharding;
* :mod:`repro.core.artifacts` -- the content-addressed artifact
  store behind the run cache and the campaign's only durable state
  (CACHE_FORMAT v5: sharded layout, atomic writes, integrity-verified
  reads).
"""

from repro.core.measurement import RunMeasurement, StepTimeline, Steps
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import CampaignResult, ScaleTestbed, run_campaign
from repro.core.artifacts import ArtifactStore, CACHE_FORMAT
from repro.core.campaign import (
    RunOutcome,
    run_campaign_parallel,
    scenario_fingerprint,
)
from repro.core.latency import (
    DistributionFit,
    LatencySummary,
    empirical_distribution,
    fit_distributions,
    summarize,
)
from repro.core.braking import (
    BrakingAnalysis,
    FullScaleVehicle,
    analyse_braking,
    froude_scale_distance,
    full_scale_braking_distance,
)
from repro.core.blind_corner import (
    BlindCornerScenario,
    BlindCornerTestbed,
    compare_configurations,
)
from repro.core.platoon import PlatoonScenario, PlatoonTestbed, run_platoon
from repro.core.report import ReportConfig, generate_report, write_report
from repro.core.fleet import (
    FleetCampaignResult,
    FleetRunResult,
    FleetScenario,
    FleetTestbed,
    run_fleet,
    run_fleet_sweep,
)

__all__ = [
    "ArtifactStore",
    "CACHE_FORMAT",
    "BlindCornerScenario",
    "BlindCornerTestbed",
    "BrakingAnalysis",
    "CampaignResult",
    "FleetCampaignResult",
    "FleetRunResult",
    "FleetScenario",
    "FleetTestbed",
    "PlatoonScenario",
    "PlatoonTestbed",
    "ReportConfig",
    "compare_configurations",
    "generate_report",
    "run_platoon",
    "write_report",
    "DistributionFit",
    "EmergencyBrakeScenario",
    "FullScaleVehicle",
    "LatencySummary",
    "RunMeasurement",
    "RunOutcome",
    "ScaleTestbed",
    "StepTimeline",
    "Steps",
    "analyse_braking",
    "empirical_distribution",
    "fit_distributions",
    "froude_scale_distance",
    "full_scale_braking_distance",
    "run_campaign",
    "run_campaign_parallel",
    "run_fleet",
    "run_fleet_sweep",
    "scenario_fingerprint",
    "summarize",
]
