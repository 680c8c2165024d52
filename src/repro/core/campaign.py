"""The campaign engine: one executor for every scenario family.

The paper's populations (Table II latency, Table III braking, the
Figure 11 EDF) and the N-OBU fleet results are repeated runs of one
scenario with different seeds.  Each run is an independent, fully
deterministic discrete-event simulation, which makes a campaign
embarrassingly parallel: :func:`run_campaign_parallel` runs the
``(scenario, seed)`` work items inline, across a
:class:`concurrent.futures.ProcessPoolExecutor` or on the durable work
queue of :mod:`repro.core.queue`, streams results back as they
complete, and folds them into the family's campaign result.  What
differs between families is one :class:`ScenarioFamily` entry of
:data:`FAMILIES`; each execution path is written once.

Two guarantees hold by construction and are enforced by the test
suite (``tests/test_campaign_engine.py``,
``tests/test_campaign_families.py``):

* **Serial/parallel equivalence** -- the DES kernel is deterministic
  per seed, every run gets its own testbed, and results are re-sorted
  by ``run_id`` before aggregation, so ``workers=N`` produces
  *bit-identical* results to ``workers=1``.
* **Cache transparency** -- completed runs are cached in the
  content-addressed :class:`~repro.core.artifacts.ArtifactStore` keyed
  by the family's SHA-256 fingerprint of the frozen scenario config
  (seed included); a hit decodes to the identical result, any change
  to the scenario or seed changes the key, and an entry that fails
  verification or decoding silently falls back to recomputing.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.artifacts import ArtifactStore, CACHE_FORMAT
from repro.core.fingerprint import spec_fingerprint
from repro.core.fleet.result import FleetCampaignResult, FleetRunResult
from repro.core.fleet.scenario import FleetScenario, fleet_fingerprint
from repro.core.fleet.testbed import FleetTestbed
from repro.core.measurement import RunMeasurement
from repro.core.scenario import EmergencyBrakeScenario, scenario_from_dict
from repro.core.testbed import CampaignResult, ScaleTestbed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs import ObsAggregate, ObsContext

#: The campaign execution backends ``run_campaign_parallel`` (and
#: everything riding it) can shard over: ``pool`` is the in-process
#: ``ProcessPoolExecutor`` sharding, ``queue`` the durable SQLite work
#: queue of :mod:`repro.core.queue` (leases, heartbeat expiry,
#: retry/requeue on worker loss, dead-letter after bounded retries).
#: Both fold to bit-identical results by construction.
BACKENDS = ("pool", "queue")


# ---------------------------------------------------------------------------
# Scenario fingerprinting
# ---------------------------------------------------------------------------


def scenario_fingerprint(scenario: EmergencyBrakeScenario,
                         fault_plan: Optional["FaultPlan"] = None,
                         salt: Optional[str] = None) -> str:
    """A stable SHA-256 key for one ``(scenario, plan, seed)`` item.

    The frozen scenario dataclass (nested configs included) is
    flattened to canonical JSON -- sorted keys, exact float reprs --
    and hashed together with :data:`CACHE_FORMAT`, the installed
    package version and the fault plan (if any).  Changing *any*
    scenario field (the seed included), any fault parameter or the
    package itself changes the key; an absent plan and an *empty*
    plan fingerprint identically, because they run identically.

    *salt* namespaces callers that derive scenarios from a wider
    context: the variation engine passes ``"<spec hash>:<point
    hash>"`` so varied runs cache under (spec, point, seed) and can
    never collide with a plain campaign over the same scenario.
    """
    plan_dict = None
    if fault_plan is not None and not fault_plan.is_empty:
        plan_dict = fault_plan.to_dict()
    return spec_fingerprint("scenario", CACHE_FORMAT, {
        # detlint: ignore[FPR004] -- tie_break is deliberately cache-separating: policies are proven bit-identical by the tie-audit, but cached entries must never mix policies (ARCHITECTURE.md §11)
        "scenario": dataclasses.asdict(scenario),
        "fault_plan": plan_dict,
        "salt": salt,
    })


# ---------------------------------------------------------------------------
# Scenario families
# ---------------------------------------------------------------------------


def _execute_brake(scenario: EmergencyBrakeScenario, run_id: int,
                   fault_plan: Optional["FaultPlan"],
                   obs_ctx: Optional["ObsContext"]) -> RunMeasurement:
    """One emergency-brake run on a fresh testbed (plan installed)."""
    testbed = ScaleTestbed(scenario, run_id=run_id, obs=obs_ctx)
    if fault_plan is not None:
        from repro.faults.injector import install_faults

        install_faults(testbed, fault_plan)
    return testbed.run()


def _execute_fleet(scenario: FleetScenario, run_id: int,
                   fault_plan: Optional["FaultPlan"],
                   obs_ctx: Optional["ObsContext"]) -> FleetRunResult:
    """One fleet run on a fresh testbed (fleets take no fault plan)."""
    return FleetTestbed(scenario, run_id=run_id, obs=obs_ctx).run()


@dataclasses.dataclass(frozen=True)
class ScenarioFamily:
    """Everything the engine needs to run, cache, queue and fold one
    scenario family."""

    #: Queue item kind, store body ``kind`` and queue-meta ``family``.
    name: str
    scenario_type: type
    scenario_to_dict: Callable[[Any], Dict[str, Any]]
    scenario_from_dict: Callable[[Dict[str, Any]], Any]
    #: Cache key of one run: ``key(scenario, fault_plan, salt)``.
    key: Callable[..., str]
    #: One run on a fresh testbed:
    #: ``execute(scenario, run_id, fault_plan, obs_ctx) -> result``.
    execute: Callable[..., Any]
    #: The store body field that holds the run's result dict.
    body_field: str
    result_from_dict: Callable[[Dict[str, Any]], Any]
    #: ``campaign_result(scenario=, runs=, obs=)``.
    campaign_result: Callable[..., Any]
    #: Whether runs take a fault plan and cache salt (and queue
    #: payloads carry the plan).
    takes_faults: bool

    def body(self, result: Any) -> Dict[str, Any]:
        """The store body for one run's *result*."""
        return {"kind": self.name, self.body_field: result.to_dict()}

    def decode(self, body: Optional[Dict[str, Any]],
               run_id: int) -> Any:
        """The result in a store *body*, or None if it does not decode.

        The key pins (scenario, seed) but not the position in a
        campaign; *run_id* rebinds the result so a store shared by
        differently-offset campaigns stays consistent with each.
        """
        if body is None:
            return None
        try:
            result = self.result_from_dict(body[self.body_field])
        except (ValueError, KeyError, TypeError):
            return None
        result.run_id = run_id
        return result


#: The scenario families, by name.
FAMILIES: Dict[str, ScenarioFamily] = {
    "brake": ScenarioFamily(
        name="brake",
        scenario_type=EmergencyBrakeScenario,
        scenario_to_dict=dataclasses.asdict,
        scenario_from_dict=scenario_from_dict,
        key=scenario_fingerprint,
        execute=_execute_brake,
        body_field="measurement",
        result_from_dict=RunMeasurement.from_dict,
        campaign_result=CampaignResult,
        takes_faults=True,
    ),
    "fleet": ScenarioFamily(
        name="fleet",
        scenario_type=FleetScenario,
        # to_dict (not asdict): emits the threshold tuple as a list,
        # so a queue payload is a JSON fixed point and hashes
        # identically before and after a round trip.
        scenario_to_dict=FleetScenario.to_dict,
        scenario_from_dict=FleetScenario.from_dict,
        # Fleets take no fault plan or salt (see check_faults).
        key=lambda scenario, fault_plan, salt: fleet_fingerprint(scenario),
        execute=_execute_fleet,
        body_field="run",
        result_from_dict=FleetRunResult.from_dict,
        campaign_result=FleetCampaignResult,
        takes_faults=False,
    ),
}


def family_of(scenario: Any) -> ScenarioFamily:
    """The family whose scenario type *scenario* is."""
    for family in FAMILIES.values():
        if isinstance(scenario, family.scenario_type):
            return family
    raise TypeError(f"no scenario family runs "
                    f"{type(scenario).__name__} scenarios")


def check_faults(family: ScenarioFamily,
                 fault_plan: Optional["FaultPlan"],
                 cache_salt: Optional[str]) -> Optional["FaultPlan"]:
    """The plan a campaign runs with (None for an empty plan).

    Raises ValueError when the family takes no fault plan or salt but
    was given one: silently dropping it would cache faulted and
    fault-free runs under one key.
    """
    if fault_plan is not None and fault_plan.is_empty:
        fault_plan = None
    if not family.takes_faults and (fault_plan is not None
                                    or cache_salt is not None):
        raise ValueError(f"the {family.name} family takes no fault "
                         f"plan or cache salt")
    return fault_plan


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """One streamed completion: which run finished, and from where."""

    run_id: int
    seed: int
    cached: bool
    #: The run's result: a RunMeasurement or a FleetRunResult.
    result: Any


#: Called after each run completes: ``progress(outcome, done, total)``.
ProgressCallback = Callable[[RunOutcome, int, int], None]


def execute_run(family: ScenarioFamily, scenario: Any, run_id: int,
                fault_plan: Optional["FaultPlan"], observe: bool,
                ) -> Tuple[Any, Optional["ObsContext"], float]:
    """One run: ``(result, obs context or None, wall seconds)``.

    With *observe* the run is instrumented with a fresh
    :class:`~repro.obs.ObsContext`; instrumentation never touches RNG
    draws or event scheduling, so the result is unchanged.
    """
    obs_ctx = None
    if observe:
        from repro.obs import ObsContext

        obs_ctx = ObsContext()
    started = perf_counter()
    result = family.execute(scenario, run_id, fault_plan, obs_ctx)
    return result, obs_ctx, perf_counter() - started


def _execute_pooled(family_name: str, scenario: Any, run_id: int,
                    fault_plan: Optional["FaultPlan"], observe: bool,
                    ) -> Tuple[Any, Optional[Dict[str, Any]], float]:
    """Pool entry point: ships the obs context home as its canonical
    dict (the round trip is byte-exact)."""
    result, obs_ctx, wall = execute_run(FAMILIES[family_name], scenario,
                                        run_id, fault_plan, observe)
    return result, None if obs_ctx is None else obs_ctx.to_dict(), wall


def fold_obs(obs: Optional["ObsAggregate"],
             shipped: List[Tuple[Optional[Dict[str, Any]],
                                 Optional[float]]]) -> None:
    """Fold shipped ``(obs dict, wall seconds)`` pairs in run order.

    A run without a context (a cache hit) counts via ``add_cached``.
    The fold is associative and commutative over metrics, but a fixed
    order keeps even order-sensitive consumers (span concatenation)
    identical to the serial path.
    """
    if obs is None:
        return
    from repro.obs import ObsContext

    for obs_dict, wall in shipped:
        if obs_dict is None:
            obs.add_cached()
        else:
            obs.add_run(ObsContext.from_dict(obs_dict), wall)


def run_campaign_parallel(
    scenario: Any = None,
    runs: int = 5,
    base_seed: int = 1,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    fault_plan: Optional["FaultPlan"] = None,
    obs: Optional["ObsAggregate"] = None,
    cache_salt: Optional[str] = None,
    backend: str = "pool",
    queue_dir: Optional[str] = None,
) -> Any:
    """Run *runs* repetitions of *scenario*, sharded over *workers*.

    *scenario* is an :class:`EmergencyBrakeScenario` (the default) or
    a :class:`~repro.core.fleet.scenario.FleetScenario`; the result is
    the family's campaign result (:class:`CampaignResult` or
    :class:`~repro.core.fleet.result.FleetCampaignResult`).

    Work item ``i`` runs ``scenario.with_seed(base_seed + i)`` as
    ``run_id = i + 1``.  ``workers=0`` auto-sizes the pool to the
    machine (``os.cpu_count()``).  With a *cache_dir* already-computed
    runs are loaded instead of re-simulated.  A *fault_plan* (brake
    family only) is installed on every run's fresh testbed and folded
    into the cache fingerprint; an empty or absent plan reproduces the
    fault-free campaign bit for bit.  Results stream back in
    completion order (reported through *progress*) but are sorted by
    ``run_id`` before aggregation, so the returned campaign is
    independent of scheduling order.

    With an *obs* aggregate, every simulated run is instrumented with
    a fresh :class:`~repro.obs.ObsContext` that is merged into the
    aggregate (cache hits count via ``add_cached``).  Pool workers
    ship their contexts back as canonical dicts, and the parent folds
    them in ``run_id`` order through the exactly-mergeable metric
    fold, so the aggregate is bit-identical to a serial instrumented
    campaign (per-run wall times aside).

    *cache_salt* (brake family only) is folded into every run's cache
    fingerprint (see :func:`scenario_fingerprint`); it never changes
    what is simulated, only under which key the result is cached.

    *backend* selects where the work items execute: ``"pool"`` (the
    default) or ``"queue"`` (the durable SQLite work queue of
    :mod:`repro.core.queue`: *workers* independent worker processes
    lease items, lost leases are requeued after heartbeat expiry, and
    exhausted items dead-letter).  Both backends fold to bit-identical
    results; the queue keeps its state under *queue_dir* (a temporary
    directory when None) so a killed campaign can be resumed or
    inspected with the ``queue`` CLI.
    """
    if scenario is None:
        scenario = EmergencyBrakeScenario()
    family = family_of(scenario)
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), "
                         f"got {workers}")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    fault_plan = check_faults(family, fault_plan, cache_salt)
    if workers == 0:
        workers = os.cpu_count() or 1
    if backend == "queue":
        from repro.core.queue.campaign import run_on_queue

        return run_on_queue(
            scenario, runs=runs, base_seed=base_seed,
            workers=workers, cache_dir=cache_dir, progress=progress,
            fault_plan=fault_plan, obs=obs, cache_salt=cache_salt,
            queue_dir=queue_dir)
    store = ArtifactStore(cache_dir) if cache_dir else None

    results: Dict[int, Any] = {}
    done = 0

    def finish(run_id: int, seed: int, cached: bool, result: Any,
               key: Optional[str]) -> None:
        nonlocal done
        if store is not None and not cached:
            assert key is not None
            store.put(key, family.body(result))
        results[run_id] = result
        done += 1
        if progress is not None:
            progress(RunOutcome(run_id=run_id, seed=seed, cached=cached,
                                result=result), done, runs)

    # --- Resolve cache hits up front; everything else is pending.
    pending = []  # (run_id, run_scenario, key)
    for index in range(runs):
        run_id = index + 1
        run_scenario = scenario.with_seed(base_seed + index)
        key = None
        if store is not None:
            key = family.key(run_scenario, fault_plan, cache_salt)
            hit = family.decode(store.get(key), run_id)
            if hit is not None:
                if obs is not None:
                    obs.add_cached()
                finish(run_id, run_scenario.seed, True, hit, key)
                continue
        pending.append((run_id, run_scenario, key))

    # --- Simulate the misses, in-process or across a pool.
    observe = obs is not None
    if workers > 1 and len(pending) > 1:
        observed = {}  # run_id -> (obs dict, wall seconds)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(pending))) as pool:
            futures = {
                pool.submit(_execute_pooled, family.name, run_scenario,
                            run_id, fault_plan, observe):
                    (run_id, run_scenario, key)
                for run_id, run_scenario, key in pending
            }
            for future in concurrent.futures.as_completed(futures):
                run_id, run_scenario, key = futures[future]
                result, obs_dict, wall = future.result()
                observed[run_id] = (obs_dict, wall)
                finish(run_id, run_scenario.seed, False, result, key)
        fold_obs(obs, [observed[run_id] for run_id in sorted(observed)])
    else:
        for run_id, run_scenario, key in pending:
            result, obs_ctx, wall = execute_run(
                family, run_scenario, run_id, fault_plan, observe)
            if obs is not None and obs_ctx is not None:
                obs.add_run(obs_ctx, wall)
            finish(run_id, run_scenario.seed, False, result, key)

    ordered = [results[run_id] for run_id in sorted(results)]
    return family.campaign_result(scenario=scenario, runs=ordered,
                                  obs=obs)
