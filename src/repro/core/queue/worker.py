"""Queue workers: lease, execute deterministically, store, complete.

A worker is a plain loop over one :class:`~repro.core.queue.backend.
WorkQueue` and one :class:`~repro.core.artifacts.ArtifactStore`:
claim the oldest pending item, execute the deterministic run it
describes, write the result under its content key, mark the item
done.  Workers are interchangeable and crash-safe:

* the result key is the run's SHA-256 content fingerprint, so a
  retry after a crash recomputes the byte-identical artifact;
* a worker that dies mid-lease simply stops heartbeating -- the
  campaign driver's ``expire()`` requeues the item;
* a worker that comes back *after* its lease expired gets a False
  from ``complete()`` and abandons the item (double-lease guard);
* an item whose artifact already verifies in the store is completed
  without simulating (``cached``), which is both the warm-cache path
  and the crashed-between-store-and-complete recovery path.

``python -m repro.core.queue.worker`` (or ``repro-testbed queue
work``) runs one worker process; the campaign driver spawns them via
``multiprocessing``.  The *stall_after_lease* hook exists for the
crash/recovery test battery (CONTRIBUTING.md): it makes the worker
hold its Nth lease without completing it, giving tests and the CI
smoke job a deterministic window in which to SIGKILL it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import FAMILIES, execute_run
from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    LeasedItem,
    WorkQueue,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import argparse

#: How long an idle worker sleeps between polls (seconds).
DEFAULT_POLL_SECONDS = 0.05


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs (picklable for spawn)."""

    queue_path: str
    store_root: str
    worker_id: str
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    poll_seconds: float = DEFAULT_POLL_SECONDS
    #: Stop after completing this many items (None = until empty).
    max_items: Optional[int] = None
    #: Keep polling even when the queue looks finished (a daemon
    #: worker); the default exits once nothing is pending or leased.
    exit_when_empty: bool = True
    #: Crash-test hook: hold the Nth lease (1-based) for
    #: *stall_seconds* without completing it.  See CONTRIBUTING.md.
    stall_after_lease: Optional[int] = None
    stall_seconds: float = 3600.0


def execute_item(kind: str, payload: Dict[str, Any],
                 store: ArtifactStore) -> Tuple[str, bool]:
    """Run one work item; returns ``(result_key, cached)``.

    The item *kind* names its scenario family (see
    :data:`repro.core.campaign.FAMILIES`).  The result key comes from
    the payload (it is the run's content fingerprint, minted at
    enqueue time).  A verified artifact that already satisfies the
    item -- including the observability context when the item asks
    for one -- short-circuits the simulation.
    """
    key = str(payload["result_key"])
    observe = bool(payload.get("observe", False))
    body = store.get(key)
    if body is not None and "error" not in body:
        if not observe or body.get("obs") is not None:
            return key, True

    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown work item kind {kind!r}")
    plan = None
    if payload.get("fault_plan") is not None:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_dict(payload["fault_plan"])
    result, obs_ctx, wall = execute_run(
        family, family.scenario_from_dict(payload["scenario"]),
        int(payload["run_id"]), plan, observe)
    body = family.body(result)
    if obs_ctx is not None:
        body["obs"] = obs_ctx.to_dict()
        body["wall_s"] = wall
    store.put(key, body)
    return key, False


def _stall(seconds: float) -> None:
    """Hold the current lease without progress (crash-test hook)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        time.sleep(min(0.5, seconds))


def work_loop(config: WorkerConfig) -> int:
    """One worker's whole life; returns how many items it completed.

    Exits when the queue has nothing pending or leased (unless
    configured as a daemon) or after *max_items* completions.  An
    execution error is reported through ``fail()`` -- the queue
    requeues or dead-letters the item -- and the loop continues, so
    one poison item cannot take the worker down with it.
    """
    queue = WorkQueue(config.queue_path)
    store = ArtifactStore(config.store_root)
    completed = 0
    leases_taken = 0
    try:
        while True:
            queue.expire()
            leased: Optional[LeasedItem] = queue.lease(
                config.worker_id, config.lease_seconds)
            if leased is None:
                if config.exit_when_empty and queue.unfinished() == 0:
                    return completed
                time.sleep(config.poll_seconds)
                continue
            leases_taken += 1
            if (config.stall_after_lease is not None
                    and leases_taken >= config.stall_after_lease):
                _stall(config.stall_seconds)
                # The lease almost certainly expired during the
                # stall; complete() below then refuses (the
                # double-lease guard) and the loop moves on.
            try:
                key, cached = execute_item(leased.kind, leased.payload,
                                           store)
            except Exception as error:
                queue.fail(config.worker_id, leased.item_id,
                           f"{type(error).__name__}: {error}")
                continue
            queue.heartbeat(config.worker_id, leased.item_id,
                            config.lease_seconds)
            if queue.complete(config.worker_id, leased.item_id, key,
                              cached=cached):
                completed += 1
            if (config.max_items is not None
                    and completed >= config.max_items):
                return completed
    finally:
        queue.close()


def add_worker_arguments(parser: "argparse.ArgumentParser") -> None:
    """The worker knobs shared by ``repro-testbed queue work`` and
    ``python -m repro.core.queue.worker``."""
    parser.add_argument("--worker-id", required=True,
                        help="unique id for lease ownership")
    parser.add_argument("--lease", type=float,
                        default=DEFAULT_LEASE_SECONDS,
                        help="lease/heartbeat horizon (s)")
    parser.add_argument("--poll", type=float,
                        default=DEFAULT_POLL_SECONDS,
                        help="idle poll interval (s)")
    parser.add_argument("--max-items", type=int, default=None,
                        help="stop after N completions")
    parser.add_argument("--daemon", action="store_true",
                        help="keep polling after the queue empties")
    parser.add_argument("--stall-after-lease", type=int, default=None,
                        metavar="N",
                        help="crash-test hook: hold the Nth lease "
                             "without completing it")
    parser.add_argument("--stall-seconds", type=float, default=3600.0,
                        help="how long the stall hook holds")


def run_worker(queue_path: str, store_root: str,
               args: "argparse.Namespace") -> int:
    """Run one worker configured by :func:`add_worker_arguments`."""
    completed = work_loop(WorkerConfig(
        queue_path=queue_path, store_root=store_root,
        worker_id=args.worker_id, lease_seconds=args.lease,
        poll_seconds=args.poll, max_items=args.max_items,
        exit_when_empty=not args.daemon,
        stall_after_lease=args.stall_after_lease,
        stall_seconds=args.stall_seconds))
    print(f"worker {args.worker_id}: completed {completed} item(s)")
    return 0


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.core.queue.worker``: one worker process."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.queue.worker",
        description="one work-queue worker process")
    parser.add_argument("--queue", required=True,
                        help="queue SQLite file")
    parser.add_argument("--store", required=True,
                        help="artifact store root")
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    return run_worker(args.queue, args.store, args)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    import sys

    sys.exit(main())
