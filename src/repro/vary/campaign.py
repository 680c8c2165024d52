"""Variation campaigns: sample a scenario space, run it, map it.

This is the layer that ties the variation engine together: a
:class:`~repro.vary.space.VariationSpec` is sampled
(:mod:`repro.vary.samplers`), every point is materialised
(:mod:`repro.vary.materialize`) and fed through the existing
deterministic campaign engine,
:func:`repro.core.campaign.run_campaign_parallel`, for either family
-- brake runs are then classified against the safety envelope -- and
every outcome folds into an exactly-mergeable
:class:`~repro.vary.coverage.CoverageModel`.

Determinism contract: for a fixed ``(spec, sampler, seed)`` the whole
campaign -- point list, per-point verdicts, coverage report -- is
byte-identical across worker counts *and* across the kernel's three
tie-break policies.  Points run serially in sample order; inside one
point the runs shard over workers via the engines, whose own
bit-identity the tier-1 suite already pins.  Tie-break is an
execution-level override that never enters the report.

The run cache keys varied brake runs under ``(spec hash, point hash,
seed)`` by salting every point's campaign with
``<spec fingerprint>:<point key>`` (see
:func:`repro.core.campaign.scenario_fingerprint`).  Fleet runs cache
under :func:`~repro.core.fleet.scenario.fleet_fingerprint`, the key
every fleet campaign uses: the materialised fleet scenario already
pins everything a run depends on.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.campaign import run_campaign_parallel
from repro.core.fleet.scenario import FleetScenario
from repro.faults.envelope import SafetyEnvelope, evaluate
from repro.faults.plan import FaultPlan
from repro.vary.coverage import (
    CoverageModel,
    build_report,
    report_digest,
)
from repro.vary.materialize import materialize
from repro.vary.samplers import (
    Refinement,
    SAMPLERS,
    grid_points,
    lhs_points,
    refine_points,
)
from repro.vary.space import (
    AxisValue,
    Constraint,
    ContinuousAxis,
    InfeasibleSpecError,
    VariationSpec,
    point_key,
)

#: How bad each verdict is, for "worst verdict of a point".  Spans both
#: families' vocabularies; N_A (no safety content) ranks below SAFE.
VERDICT_SEVERITY: Dict[str, int] = {
    "N_A": -1,
    "SAFE": 0,
    "SAFE_STOP": 0,
    "LATE": 1,
    "LATE_STOP": 1,
    "SPURIOUS_STOP": 2,
    "PILE_UP": 3,
    "NO_STOP": 4,
}

#: Called after each evaluated point: ``progress(done, point)``.
VaryProgress = Callable[[int, "PointResult"], None]


def worst_verdict(verdicts: Sequence[str]) -> str:
    """The most severe verdict of a run population.

    Unknown verdict strings rank above everything known (fail loud in
    the report rather than silently counting as safe); ties break by
    the verdict string so the result is total-ordered.
    """
    if not verdicts:
        return "N_A"
    return max(sorted(verdicts),
               key=lambda verdict: (
                   VERDICT_SEVERITY.get(verdict, 99), verdict))


@dataclasses.dataclass(frozen=True)
class PointResult:
    """One evaluated point: where it was, how it was found, what happened."""

    #: Position in evaluation order (0-based).
    index: int
    #: The sampled axis values.
    values: Dict[str, AxisValue]
    #: SHA-256 point key (cache-salt component).
    key: str
    #: How the point was produced: ``grid`` / ``lhs`` / ``refine``.
    origin: str
    #: Parent point keys when origin is ``refine`` (safe, unsafe).
    parents: Tuple[str, ...]
    #: Per-run verdicts, run order.
    verdicts: Tuple[str, ...]
    #: Observed end-to-end latencies (ms), sorted.
    latencies_ms: Tuple[float, ...]
    #: Worst verdict over the runs.
    worst: str

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {
            "index": self.index,
            "values": {name: self.values[name]
                       for name in sorted(self.values)},
            "key": self.key,
            "origin": self.origin,
            "parents": list(self.parents),
            "verdicts": list(self.verdicts),
            "latencies_ms": list(self.latencies_ms),
            "worst": self.worst,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointResult":
        """Rebuild a point result serialised by :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            values=dict(data["values"]),
            key=str(data["key"]),
            origin=str(data["origin"]),
            parents=tuple(data["parents"]),
            verdicts=tuple(data["verdicts"]),
            latencies_ms=tuple(float(value)
                               for value in data["latencies_ms"]),
            worst=str(data["worst"]),
        )


@dataclasses.dataclass
class VariationResult:
    """A whole variation campaign: points, coverage, provenance."""

    spec: VariationSpec
    sampler: Dict[str, Any]
    points: List[PointResult]
    coverage: CoverageModel
    refinements: List[Refinement]

    def report(self) -> Dict[str, Any]:
        """The canonical coverage report (validated)."""
        return build_report(
            self.coverage,
            sampler_meta=self.sampler,
            points=[point.to_dict() for point in self.points],
            refinements=[entry.to_dict()
                         for entry in self.refinements],
        )

    def digest(self) -> str:
        """SHA-256 over the canonical report JSON."""
        return report_digest(self.report())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {
            "spec": self.spec.to_dict(),
            "sampler": {key: self.sampler[key]
                        for key in sorted(self.sampler)},
            "points": [point.to_dict() for point in self.points],
            "coverage": self.coverage.to_dict(),
            "refinements": [entry.to_dict()
                            for entry in self.refinements],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VariationResult":
        """Rebuild a campaign serialised by :meth:`to_dict`."""
        return cls(
            spec=VariationSpec.from_dict(data["spec"]),
            sampler=dict(data["sampler"]),
            points=[PointResult.from_dict(entry)
                    for entry in data["points"]],
            coverage=CoverageModel.from_dict(data["coverage"]),
            refinements=[Refinement.from_dict(entry)
                         for entry in data["refinements"]],
        )


def _evaluate_point(
    spec: VariationSpec,
    values: Dict[str, AxisValue],
    key: str,
    runs_per_point: int,
    base_seed: int,
    workers: int,
    cache_dir: Optional[str],
    tie_break: Optional[str],
    envelope: Optional[SafetyEnvelope],
) -> Tuple[Tuple[str, ...], Tuple[float, ...], Tuple[str, ...]]:
    """Run one point: (verdicts, latencies ms, fault kinds)."""
    point = materialize(spec, values, tie_break=tie_break)
    if isinstance(point.scenario, FleetScenario):
        campaign = run_campaign_parallel(
            point.scenario, runs=runs_per_point, base_seed=base_seed,
            workers=workers, cache_dir=cache_dir)
        verdicts = tuple(run.verdict for run in campaign.runs)
        latencies = tuple(sorted(
            value for run in campaign.runs
            for value in run.latencies()))
        kinds: Tuple[str, ...] = ()
    else:
        plan = point.fault_plan or FaultPlan.empty()
        campaign = run_campaign_parallel(
            point.scenario, runs=runs_per_point, base_seed=base_seed,
            workers=workers, cache_dir=cache_dir, fault_plan=plan,
            cache_salt=f"{spec.fingerprint()}:{key}")
        envelope = envelope or SafetyEnvelope()
        classified = [evaluate(measurement, envelope)
                      for measurement in campaign.runs]
        verdicts = tuple(entry.verdict for entry in classified)
        latencies = tuple(sorted(
            entry.total_delay_ms for entry in classified
            if entry.total_delay_ms is not None))
        kinds = tuple(sorted({fault.KIND for fault in plan.faults}))
    return verdicts, latencies, kinds


def _candidate_count(spec: VariationSpec, origin: str, levels: int,
                     points: int) -> int:
    """How many raw samples the sampler drew before constraints."""
    if origin == "grid":
        count = 1
        for axis in spec.axes:
            count *= len(axis.grid(levels))
        return count
    return points


def run_variation_campaign(
    spec: VariationSpec,
    sampler: str = "grid",
    points: int = 16,
    levels: int = 3,
    refine_rounds: int = 0,
    refine_budget: int = 4,
    runs_per_point: int = 1,
    base_seed: int = 1,
    sample_seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    tie_break: Optional[str] = None,
    envelope: Optional[SafetyEnvelope] = None,
    progress: Optional[VaryProgress] = None,
) -> VariationResult:
    """Sample *spec*, run every point, and fold coverage.

    ``sampler`` is ``grid`` (cartesian product at *levels* per range
    axis), ``lhs`` (*points* Latin-Hypercube samples drawn from the
    ``vary.*`` substreams of *sample_seed*, default *base_seed*) or
    ``adaptive`` (LHS seeding plus at least one refinement round
    bisecting observed SAFE <-> LATE/NO boundaries).  *refine_rounds*
    > 0 also adds refinement on top of grid or lhs sampling.

    Every point runs *runs_per_point* seeds ``base_seed ..`` through
    the family's parallel engine; *workers* only shards those runs --
    the report is byte-identical for any value.  *tie_break*
    optionally overrides the kernel tie-break policy per run and by
    design cannot change any result.

    A spec whose constraints reject every candidate point raises
    :class:`~repro.vary.space.InfeasibleSpecError` -- an empty
    campaign is a spec bug, not a valid (vacuously covered) report.
    """
    if sampler not in SAMPLERS:
        raise ValueError(
            f"unknown sampler {sampler!r}; choose from {SAMPLERS}")
    if runs_per_point < 1:
        raise ValueError(
            f"runs_per_point must be >= 1, got {runs_per_point}")
    if sample_seed is None:
        sample_seed = base_seed

    if sampler == "grid":
        initial = grid_points(spec, levels=levels)
        origin = "grid"
    else:
        initial = lhs_points(spec, points, seed=sample_seed)
        origin = "lhs"
    if not initial:
        raise InfeasibleSpecError(
            spec.name, _candidate_count(spec, origin, levels, points),
            origin)
    rounds = refine_rounds
    if sampler == "adaptive":
        rounds = max(1, refine_rounds)

    sampler_meta: Dict[str, Any] = {
        "strategy": sampler,
        "base_seed": base_seed,
        "sample_seed": sample_seed,
        "runs_per_point": runs_per_point,
        "levels": levels,
        "points_requested": points,
        "refine_rounds": rounds,
        "refine_budget": refine_budget,
    }

    coverage = CoverageModel(spec)
    results: List[PointResult] = []
    evaluated: List[Tuple[Dict[str, AxisValue], str]] = []
    seen_keys: Set[str] = set()
    refinements: List[Refinement] = []

    def run_point(values: Dict[str, AxisValue], origin: str,
                  parents: Tuple[str, ...]) -> None:
        key = point_key(values)
        seen_keys.add(key)
        verdicts, latencies, kinds = _evaluate_point(
            spec, values, key, runs_per_point, base_seed, workers,
            cache_dir, tie_break, envelope)
        point = PointResult(
            index=len(results), values=values, key=key,
            origin=origin, parents=parents, verdicts=verdicts,
            latencies_ms=latencies, worst=worst_verdict(verdicts))
        results.append(point)
        evaluated.append((values, point.worst))
        coverage.observe_point(key, values, verdicts, latencies,
                               kinds)
        if progress is not None:
            progress(len(results), point)

    for values in initial:
        run_point(values, origin, ())

    for _ in range(rounds):
        batch = refine_points(spec, evaluated, budget=refine_budget,
                              exclude_keys=seen_keys)
        if not batch:
            break
        refinements.extend(batch)
        for refinement in batch:
            run_point(refinement.values, "refine",
                      (refinement.parent_safe,
                       refinement.parent_unsafe))

    return VariationResult(spec=spec, sampler=sampler_meta,
                           points=results, coverage=coverage,
                           refinements=refinements)


def sample_only(spec: VariationSpec, sampler: str = "grid",
                points: int = 16, levels: int = 3,
                sample_seed: int = 1,
                ) -> List[Dict[str, AxisValue]]:
    """The point list a campaign would evaluate, without running it.

    ``adaptive`` yields its LHS seeding (refinements depend on
    verdicts, which require running).  Backs ``vary sample`` and
    ``--dry-run``.  Like the campaign, an all-infeasible sample
    raises :class:`~repro.vary.space.InfeasibleSpecError`.
    """
    if sampler not in SAMPLERS:
        raise ValueError(
            f"unknown sampler {sampler!r}; choose from {SAMPLERS}")
    if sampler == "grid":
        sampled = grid_points(spec, levels=levels)
        origin = "grid"
    else:
        sampled = lhs_points(spec, points, seed=sample_seed)
        origin = "lhs"
    if not sampled:
        raise InfeasibleSpecError(
            spec.name, _candidate_count(spec, origin, levels, points),
            origin)
    return sampled


# ---------------------------------------------------------------------------
# Demo specs
# ---------------------------------------------------------------------------


def blind_corner_demo() -> VariationSpec:
    """The blind-corner sweep from EXPERIMENTS.md §vary.

    Two axes straddle the stopping boundary of the fleet blind-corner
    workload: the protagonist halts from ``speed`` (2 m/s) at
    ``brake_deceleration`` (4.5 m/s^2) once the DENM lands after
    ``warning_after``, so it travels roughly ``2 * warning_after +
    0.45`` m -- points below that line brake too late.  SAFE and
    LATE/NO both occur inside the box, which is what makes the
    adaptive sampler's boundary bisection observable.
    """
    return VariationSpec(
        name="blind-corner-demo",
        family="fleet",
        axes=(
            ContinuousAxis("protagonist_start", 2.5, 11.0),
            ContinuousAxis("warning_after", 1.0, 4.0),
        ),
        base={
            "workload": "blind_corner",
            "n_obus": 2,
            "duration": 6.0,
        },
        coverage_bins=4,
    )


def brake_demo() -> VariationSpec:
    """An emergency-brake sweep over the Action Point geometry.

    Varies where the vehicle starts and where the Action Point sits
    (the paper's Figure 7 geometry); the constraint keeps the Action
    Point strictly inside the approach.
    """
    return VariationSpec(
        name="brake-demo",
        family="emergency_brake",
        axes=(
            ContinuousAxis("action_distance", 0.8, 2.4),
            ContinuousAxis("start_distance", 3.0, 9.0),
        ),
        constraints=(
            Constraint(lhs="action_distance", op="<",
                       rhs_axis="start_distance"),
        ),
        coverage_bins=4,
    )


def demo_specs() -> Dict[str, VariationSpec]:
    """The built-in example specs, by name."""
    specs = [blind_corner_demo(), brake_demo()]
    return {spec.name: spec for spec in specs}
