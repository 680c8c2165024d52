"""Fleet-size sweeps over the campaign engine.

A single fleet campaign is an ordinary
:func:`repro.core.campaign.run_campaign_parallel` call with a
:class:`~repro.core.fleet.scenario.FleetScenario`; this module adds
the N-sweep on top: one campaign per fleet size, same seeds
throughout.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.fleet.result import FleetCampaignResult
from repro.core.fleet.scenario import FleetScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.campaign import ProgressCallback


def run_fleet_sweep(
    sizes: Sequence[int],
    scenario: Optional[FleetScenario] = None,
    runs: int = 3,
    base_seed: Optional[int] = None,
    workers: int = 1,
    progress: Optional["ProgressCallback"] = None,
) -> Dict[int, FleetCampaignResult]:
    """One campaign per fleet size in *sizes* (same seeds throughout).

    Seeds run ``base_seed .. base_seed+runs-1``; *base_seed* defaults
    to the scenario's own seed.
    """
    # The engine imports this package, so import it on first use.
    from repro.core.campaign import run_campaign_parallel

    base = scenario or FleetScenario()
    if base_seed is None:
        base_seed = base.seed
    out: Dict[int, FleetCampaignResult] = {}
    for n_obus in sizes:
        sized = dataclasses.replace(base, n_obus=n_obus)
        out[n_obus] = run_campaign_parallel(
            sized, runs=runs, base_seed=base_seed, workers=workers,
            progress=progress)
    return out


__all__ = [
    "run_fleet_sweep",
]
