"""Queue-backed campaigns: enqueue, drive workers, fold results.

The glue between the durable queue and the campaign engine
(:mod:`repro.core.campaign`).  Every layer is family-agnostic: the
scenario family (brake or fleet) comes from the scenario type at
enqueue time and from the queue's ``campaign`` meta at fold time.

* **Enqueue** -- :func:`enqueue_campaign` turns ``(scenario, seed)``
  work into :class:`~repro.core.queue.backend.QueueItem` rows whose
  ``result_key`` is the run's content fingerprint (the very key the
  pool path caches under) and records the campaign metadata the fold
  needs to rebuild the result object.
* **Drive** -- :func:`drive_queue` spawns N worker processes and
  monitors the queue (expiring lost leases, streaming progress,
  respawning dead workers while retry budget remains) until every
  item is done or dead; :func:`run_on_queue` is the engine's
  ``backend="queue"`` placement: enqueue, drive, fold.
* **Fold** -- :func:`fold_queue_campaign` streams completed artifacts
  out of the store *in run-id order* and rebuilds the exact campaign
  result (and :class:`~repro.obs.ObsAggregate`) the serial and pool
  paths produce.

**The bit-identity argument.**  Every item describes a run that is a
pure function of its payload (deterministic DES per seed); its
artifact is stored under the content fingerprint of that payload, so
a crashed-and-retried item recomputes the byte-identical entry; the
fold consumes items sorted by ``run_id`` -- a total order fixed at
enqueue time -- so completion order, lease interleaving, worker
count, placement and crash history are all invisible to the folded
bytes.  Dead-lettered items are *not* silently dropped: folding an
incomplete campaign raises :class:`DeadLetterError` naming them.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import (
    FAMILIES,
    RunOutcome,
    check_faults,
    family_of,
    fold_obs,
)
from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    QueueItem,
    WorkQueue,
    item_identity,
)
from repro.core.queue.worker import (
    DEFAULT_POLL_SECONDS,
    WorkerConfig,
    work_loop,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.campaign import ProgressCallback
    from repro.faults.plan import FaultPlan
    from repro.obs import ObsAggregate


class QueueCampaignError(RuntimeError):
    """A queue campaign could not run to completion."""


class DeadLetterError(QueueCampaignError):
    """Folding was refused because items dead-lettered.

    Carries the dead-letter section so callers can surface *which*
    items were lost instead of a truncated population.
    """

    def __init__(self, dead: List[Dict[str, Any]]) -> None:
        self.dead = dead
        ids = ", ".join(entry["item_id"][:12] for entry in dead)
        super().__init__(
            f"{len(dead)} item(s) exceeded their retry budget and "
            f"dead-lettered: {ids}; see `queue status` for the "
            f"dead_letter section")


#: Filenames inside a queue directory.
QUEUE_DB = "queue.sqlite"
STORE_DIR = "store"


def queue_paths(queue_dir: str,
                cache_dir: Optional[str] = None) -> Dict[str, str]:
    """Resolve the queue DB and store root inside *queue_dir*.

    With a *cache_dir* the artifact store points there instead, so a
    queue campaign shares the pool path's run cache.
    """
    return {
        "queue": os.path.join(queue_dir, QUEUE_DB),
        "store": cache_dir if cache_dir is not None
        else os.path.join(queue_dir, STORE_DIR),
    }


# ---------------------------------------------------------------------------
# Enqueue
# ---------------------------------------------------------------------------


def enqueue_campaign(
    queue: WorkQueue,
    scenario: Any,
    runs: int,
    base_seed: int = 1,
    fault_plan: Optional["FaultPlan"] = None,
    observe: bool = False,
    cache_salt: Optional[str] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> int:
    """Enqueue one campaign's ``(scenario, seed)`` items.

    Work item ``i`` runs ``scenario.with_seed(base_seed + i)`` as
    ``run_id = i + 1`` -- exactly the pool path's sharding.  The
    family follows from the scenario type; a *fault_plan* and
    *cache_salt* are for the brake family only.  The campaign
    metadata (scenario, seeds, family) is recorded on the queue so
    ``queue fold`` can rebuild the result without the caller's
    objects.  Returns how many items were newly inserted
    (re-enqueueing is idempotent).
    """
    family = family_of(scenario)
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    fault_plan = check_faults(family, fault_plan, cache_salt)
    items: List[QueueItem] = []
    for index in range(runs):
        run_id = index + 1
        run_scenario = scenario.with_seed(base_seed + index)
        payload: Dict[str, Any] = {
            "scenario": family.scenario_to_dict(run_scenario)}
        if family.takes_faults:
            payload["fault_plan"] = (None if fault_plan is None
                                     else fault_plan.to_dict())
        # plan_index is always 0; it stays in the payload so item ids
        # (hashes of the payload) match queues enqueued before it
        # lost its meaning.
        payload.update(run_id=run_id, plan_index=0, observe=observe,
                       result_key=family.key(run_scenario, fault_plan,
                                             cache_salt))
        items.append(QueueItem(
            item_id=item_identity(family.name, payload),
            kind=family.name, payload=payload))
    meta: Dict[str, Any] = {
        "family": family.name,
        "scenario": family.scenario_to_dict(scenario),
        "runs": runs,
        "base_seed": base_seed,
        "observe": observe,
    }
    if family.takes_faults:
        meta["cache_salt"] = cache_salt
    queue.set_meta("campaign", meta)
    return queue.enqueue(items, max_attempts=max_attempts)


# ---------------------------------------------------------------------------
# Drive
# ---------------------------------------------------------------------------


def drive_queue(
    queue: WorkQueue,
    queue_path: str,
    store_root: str,
    workers: int,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    on_completed: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> None:
    """Run workers until every item is done or dead.

    ``workers == 1`` executes the loop in-process (fast, easy to
    debug); more workers spawn independent processes.  The monitor
    loop expires lost leases and respawns workers that died (SIGKILL
    included) while any item still has retry budget -- the queue's
    bounded ``attempts`` guarantees termination: every lease consumes
    an attempt, so items either complete or dead-letter.

    *on_completed* streams newly completed item rows (queue order
    within each poll) to the caller -- the progress seam.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    reported: Set[str] = set()

    def report_new() -> None:
        if on_completed is None:
            return
        for item in queue.items(state="done"):
            if item["item_id"] not in reported:
                reported.add(item["item_id"])
                on_completed(item)

    def config(index: int) -> WorkerConfig:
        return WorkerConfig(
            queue_path=queue_path, store_root=store_root,
            worker_id=f"w{index}", lease_seconds=lease_seconds,
            poll_seconds=poll_seconds)

    if workers == 1 or queue.unfinished() <= 1:
        work_loop(config(1))
        queue.expire()
        report_new()
        return

    import multiprocessing

    context = multiprocessing.get_context("spawn")

    def spawn(index: int) -> Any:
        process = context.Process(target=work_loop, args=(config(index),))
        process.start()
        return process

    procs = [spawn(index + 1) for index in range(workers)]
    respawned = 0
    # Bounded respawn budget: enough to re-cover every attempt the
    # queue itself allows, never an unbounded supervisor.
    max_respawns = workers * DEFAULT_MAX_ATTEMPTS
    try:
        while queue.unfinished() > 0:
            queue.expire()
            report_new()
            alive = [p for p in procs if p.is_alive()]
            if not alive and queue.unfinished() > 0:
                if respawned >= max_respawns:
                    raise QueueCampaignError(
                        f"all workers died and the respawn budget "
                        f"({max_respawns}) is exhausted with "
                        f"{queue.unfinished()} item(s) unfinished")
                respawned += 1
                procs.append(spawn(workers + respawned))
            time.sleep(poll_seconds)
        for process in procs:
            process.join(timeout=30.0)
    finally:
        for process in procs:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    queue.expire()
    report_new()


# ---------------------------------------------------------------------------
# Fold
# ---------------------------------------------------------------------------


def _completed_bodies(queue: WorkQueue, store: ArtifactStore,
                      ) -> List[Dict[str, Any]]:
    """Completed item rows + verified bodies, in run_id order.

    Raises :class:`DeadLetterError` when items dead-lettered and
    :class:`QueueCampaignError` when items are still unfinished or an
    artifact fails integrity verification (a done item whose result
    cannot be read back is a lost result, not a silent hole).
    """
    dead = queue.dead_letter()
    if dead:
        raise DeadLetterError(dead)
    unfinished = queue.unfinished()
    if unfinished:
        raise QueueCampaignError(
            f"{unfinished} item(s) still pending or leased; drive "
            f"the queue (queue work/drain) before folding")
    rows = queue.items(state="done")
    rows.sort(key=lambda item: int(item["payload"]["run_id"]))
    out: List[Dict[str, Any]] = []
    for item in rows:
        body = store.get(item["result_key"])
        if body is None:
            raise QueueCampaignError(
                f"artifact {item['result_key'][:12]} for item "
                f"{item['item_id'][:12]} is missing or failed "
                f"integrity verification")
        out.append({"item": item, "body": body})
    return out


def fold_queue_campaign(queue: WorkQueue, store: ArtifactStore,
                        obs: Optional["ObsAggregate"] = None) -> Any:
    """Rebuild the campaign result of the queue's family.

    Streams completed artifacts out of the store in run-id order --
    the same canonical order the pool path sorts into -- so the
    result (runs and, when instrumented, the folded aggregate) is
    byte-identical to ``workers=1``.
    """
    meta = queue.get_meta("campaign")
    family = FAMILIES.get(meta.get("family")) if meta else None
    if meta is None or family is None:
        raise QueueCampaignError(
            "queue holds no campaign metadata (enqueue the campaign "
            "first)")
    completed = _completed_bodies(queue, store)
    runs = []
    for entry in completed:
        item = entry["item"]
        result = family.decode(entry["body"],
                               int(item["payload"]["run_id"]))
        if result is None:
            raise QueueCampaignError(
                f"artifact {item['result_key'][:12]} for item "
                f"{item['item_id'][:12]} holds no {family.name} result")
        runs.append(result)
    fold_obs(obs, [(entry["body"].get("obs"), entry["body"].get("wall_s"))
                   for entry in completed])
    return family.campaign_result(
        scenario=family.scenario_from_dict(meta["scenario"]),
        runs=runs, obs=obs)


# ---------------------------------------------------------------------------
# The engine's backend="queue" placement
# ---------------------------------------------------------------------------


def run_on_queue(
    scenario: Any,
    runs: int,
    base_seed: int,
    workers: int,
    cache_dir: Optional[str],
    progress: Optional["ProgressCallback"],
    fault_plan: Optional["FaultPlan"],
    obs: Optional["ObsAggregate"],
    cache_salt: Optional[str],
    queue_dir: Optional[str],
) -> Any:
    """Enqueue, drive and fold one campaign on the work queue.

    Called by :func:`repro.core.campaign.run_campaign_parallel` with
    validated arguments (``workers >= 1``).  The queue lives in
    *queue_dir* (a fresh temporary directory when None); *workers*
    worker processes drive it to completion -- surviving worker loss
    via lease expiry and bounded retries -- and the streamed results
    fold into the bit-identical campaign result.  With a *cache_dir*
    the artifact store doubles as the shared run cache, so warm
    entries complete without simulating (reported as cached through
    *progress*).
    """
    if queue_dir is None:
        queue_dir = tempfile.mkdtemp(prefix="repro-queue-")
    paths = queue_paths(queue_dir, cache_dir)
    queue = WorkQueue(paths["queue"])
    try:
        enqueue_campaign(
            queue, scenario, runs=runs, base_seed=base_seed,
            fault_plan=fault_plan, observe=obs is not None,
            cache_salt=cache_salt)
        store = ArtifactStore(paths["store"])
        done = 0

        def on_completed(item: Dict[str, Any]) -> None:
            nonlocal done
            done += 1
            if progress is None:
                return
            run_id = int(item["payload"]["run_id"])
            result = FAMILIES[item["kind"]].decode(
                store.get(item["result_key"]), run_id)
            if result is None:
                return
            progress(RunOutcome(
                run_id=run_id, seed=int(item["payload"]["scenario"]["seed"]),
                cached=bool(item["cached"]), result=result), done, runs)

        if runs > 0:
            drive_queue(queue, paths["queue"], paths["store"],
                        workers=min(workers, runs),
                        on_completed=on_completed)
        return fold_queue_campaign(queue, store, obs=obs)
    finally:
        queue.close()


__all__ = [
    "DeadLetterError",
    "QUEUE_DB",
    "QueueCampaignError",
    "STORE_DIR",
    "drive_queue",
    "enqueue_campaign",
    "fold_queue_campaign",
    "queue_paths",
    "run_on_queue",
]
