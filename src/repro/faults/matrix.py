"""Fault-matrix campaigns: N plans x M seeds, one table out.

Crosses a list of :class:`~repro.faults.plan.FaultPlan` with a seed
population: every plan runs the same *runs* seeds through the
parallel campaign engine (:func:`repro.core.campaign.
run_campaign_parallel`), every run is classified by the
:mod:`~repro.faults.envelope`, and each plan aggregates into one row
of availability / safety statistics.

Because each (scenario, plan, seed) run is deterministic and plans
fold into the cache fingerprint, the matrix is bit-reproducible:
``workers=4`` yields exactly the rows of ``workers=1``, and a warm
cache replays them without simulating.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.campaign import run_campaign_parallel
from repro.core.scenario import EmergencyBrakeScenario, scenario_from_dict
from repro.faults.envelope import (
    DependabilityVerdict,
    SAFE_STOP,
    SafetyEnvelope,
    VERDICTS,
    evaluate,
)
from repro.faults.plan import FaultPlan

#: Called after each plan's campaign: ``progress(plan_name, i, total)``.
MatrixProgress = Callable[[str, int, int], None]


@dataclasses.dataclass
class FaultMatrixRow:
    """One plan's aggregated outcome over the seed population."""

    plan: FaultPlan
    #: Per-run verdicts, ordered by run_id.
    verdicts: List[DependabilityVerdict]

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def runs(self) -> int:
        return len(self.verdicts)

    def count(self, verdict: str) -> int:
        """How many runs were classified *verdict*."""
        return sum(1 for v in self.verdicts if v.verdict == verdict)

    @property
    def counts(self) -> Dict[str, int]:
        """Verdict -> run count, every verdict present."""
        return {verdict: self.count(verdict) for verdict in VERDICTS}

    @property
    def availability(self) -> float:
        """Fraction of runs in which the safety function succeeded."""
        if not self.verdicts:
            return float("nan")
        return self.count(SAFE_STOP) / len(self.verdicts)

    @property
    def denm_delivery_rate(self) -> float:
        """Fraction of runs in which the DENM reached the OBU."""
        if not self.verdicts:
            return float("nan")
        delivered = sum(1 for v in self.verdicts if v.denm_delivered)
        return delivered / len(self.verdicts)

    @property
    def mean_stop_margin(self) -> Optional[float]:
        """Mean signed stop margin (m) over the halted runs."""
        margins = [v.stop_margin for v in self.verdicts
                   if v.stop_margin is not None]
        if not margins:
            return None
        return sum(margins) / len(margins)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form (the equivalence oracle)."""
        return {
            "plan": self.plan.to_dict(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMatrixRow":
        """Rebuild a row serialised by :meth:`to_dict`."""
        return cls(
            plan=FaultPlan.from_dict(data["plan"]),
            verdicts=[DependabilityVerdict.from_dict(entry)
                      for entry in data["verdicts"]],
        )


@dataclasses.dataclass
class FaultMatrixResult:
    """The whole matrix: one row per plan, shared scenario + seeds."""

    scenario: EmergencyBrakeScenario
    envelope: SafetyEnvelope
    base_seed: int
    rows: List[FaultMatrixRow]

    def row(self, name: str) -> FaultMatrixRow:
        """The row for the plan called *name* (raises if absent)."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form of every row."""
        return {
            "base_seed": self.base_seed,
            "envelope": dataclasses.asdict(self.envelope),
            "rows": [row.to_dict() for row in self.rows],
            "scenario": dataclasses.asdict(self.scenario),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMatrixResult":
        """Rebuild a matrix serialised by :meth:`to_dict`."""
        return cls(
            scenario=scenario_from_dict(data["scenario"]),
            envelope=SafetyEnvelope(**data["envelope"]),
            base_seed=int(data["base_seed"]),
            rows=[FaultMatrixRow.from_dict(entry)
                  for entry in data["rows"]],
        )


def run_fault_matrix(
    scenario: Optional[EmergencyBrakeScenario] = None,
    plans: Sequence[FaultPlan] = (),
    runs: int = 5,
    base_seed: int = 1,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    envelope: Optional[SafetyEnvelope] = None,
    progress: Optional[MatrixProgress] = None,
    cache_salt: Optional[str] = None,
) -> FaultMatrixResult:
    """Run every plan over the same seed population and classify.

    Plans execute in the given order; within one plan the runs shard
    over *workers* exactly like an ordinary campaign (``workers=0``
    auto-sizes).  Rows come back in plan order with verdicts ordered
    by run_id, so the result is invariant to scheduling.  A
    *cache_salt* is forwarded into every run's cache fingerprint (the
    variation engine namespaces its points this way); it never changes
    what is simulated.
    """
    scenario = scenario or EmergencyBrakeScenario()
    envelope = envelope or SafetyEnvelope()
    rows: List[FaultMatrixRow] = []
    for index, plan in enumerate(plans):
        result = run_campaign_parallel(
            scenario, runs=runs, base_seed=base_seed, workers=workers,
            cache_dir=cache_dir, fault_plan=plan,
            cache_salt=cache_salt)
        verdicts = [evaluate(measurement, envelope)
                    for measurement in result.runs]
        rows.append(FaultMatrixRow(plan=plan, verdicts=verdicts))
        if progress is not None:
            progress(plan.name, index + 1, len(plans))
    return FaultMatrixResult(scenario=scenario, envelope=envelope,
                             base_seed=base_seed, rows=rows)
