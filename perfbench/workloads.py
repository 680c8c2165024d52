"""The benchmark's workloads: what one operation runs and how it is checked.

A workload turns the ``--seed`` argument into a fixed pool of inputs
(:meth:`Workload.items`).  One operation runs one item and returns an
:class:`Outcome`; :meth:`Workload.check` lists what is wrong with it.

* ``paper_brake``: the default emergency-brake scenario, one seed per
  operation, through the campaign engine with one worker.
* ``fleet_n32_corner``: a 32-OBU blind-corner fleet, the congested channel.
* ``fleet_n8_convoy``: an 8-OBU fleet around a 4-vehicle convoy.
* ``lint_src``: one detlint pass over ``src`` with every rule family.

Repro modules are imported inside the methods, so that importing this
module costs nothing and set-up time measures only what a workload needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Any, Dict, List, Optional

#: The seed whose outputs are pinned below.
DEFAULT_SEED = 1

#: Output digests for ``--seed DEFAULT_SEED``, by workload and item:
#: ``CampaignResult.digest()`` and ``fleet_runs_digest``.  A change that
#: alters simulated results on purpose re-pins these and says why in
#: CHANGES.md.  ``lint_src`` is checked for zero findings instead.
PINNED: Dict[str, Dict[int, str]] = {
    "paper_brake": {
        1: "c128bc9798df187c7f0289bbe636a5aafd644d24150ecd5395ffbba3c9325628",
        2: "fb8e67cfe80ea05bc82477580e9276612a65b466ba1c461a563c3f32e173f279",
        3: "9f6dc64767361b8a659b98f79531578edbfdf1f96772ab282b00463a2dffcd04",
        4: "9b50ff152211971c381d62cb3c8c5ecd8bed2610c12a7d3a9b48cd55cf9f858b",
        5: "38dae70bc2d1dc8822c3788f184c99974311d798d5724e33efc3f9dc0d3d6f74",
        6: "5282791b44ba51e56a1acd501c0807bccdd57161d291a033266a08eea8e8852a",
    },
    "fleet_n32_corner": {
        1: "6d49be88febfeb32faf640f7a134b55e083f21626a95f5b6dea23e2fd7c2d578",
        2: "290c4754844f2cd7dd14a45bcbcd3f5096a4e1953fe2dd883a36655bc6b28086",
    },
    "fleet_n8_convoy": {
        1: "c66f6e40c1354bc17565a02fb8f94f887d5685baa279aa50774d8e568cbc3346",
        2: "b5075b877fbfdfed77ab5d27534c64f6a87583577c24418ddc1e093fb3d3ab3a",
        3: "1dfa01504d1c6642bc1eff537515a4f76b8c7bd48c90e45d4d9a008889270ea9",
        4: "736e8e02b2919b8b10c2ade472f1e108014041240eb8738cbc42c919728a06bf",
    },
}

#: Total-delay budget every paper run must meet (ms): the paper's claim.
DELAY_BUDGET_MS = 100.0


@dataclasses.dataclass
class Outcome:
    """What one operation produced."""

    digest: str
    result: Any
    #: Kernel events, known only when an ObsContext was attached.
    kernel_events: Optional[float] = None


class Workload:
    """One benchmark workload."""

    name = ""
    #: Items per pool; a timed pass runs each item once.
    pool_size = 1
    #: Whether the workload drives the simulation kernel.
    simulated = True

    def items(self, seed: int) -> List[int]:
        """The inputs of one pass: consecutive scenario seeds."""
        return [seed + index for index in range(self.pool_size)]

    def setup(self, item: int) -> None:
        """Import what the workload needs and build its first input."""
        raise NotImplementedError

    def run(self, item: int, observe: bool = False) -> Outcome:
        """One operation; *observe* attaches an ObsContext."""
        raise NotImplementedError

    def check(self, item: int, outcome: Outcome) -> List[str]:
        """Everything wrong with *outcome*; empty when it is correct."""
        raise NotImplementedError

    def pinned_errors(self, seed: int, item: int, outcome: Outcome,
                      pinned: Dict[str, Dict[int, str]]) -> List[str]:
        """A mismatch against the pinned digest (default seed only)."""
        if seed != DEFAULT_SEED:
            return []
        expected = pinned.get(self.name, {}).get(item)
        if expected is None or expected == outcome.digest:
            return []
        return [f"item {item}: digest {outcome.digest[:16]} != pinned "
                f"{expected[:16]}"]


class PaperBrake(Workload):
    name = "paper_brake"
    pool_size = 6

    def setup(self, item: int) -> None:
        from repro.core.campaign import run_campaign_parallel  # noqa: F401
        from repro.core.scenario import EmergencyBrakeScenario
        from repro.core.testbed import ScaleTestbed

        ScaleTestbed(EmergencyBrakeScenario().with_seed(item))

    def run(self, item: int, observe: bool = False) -> Outcome:
        from repro.core.campaign import run_campaign_parallel
        from repro.core.scenario import EmergencyBrakeScenario
        from repro.obs import ObsAggregate

        obs = ObsAggregate() if observe else None
        result = run_campaign_parallel(
            EmergencyBrakeScenario(), runs=1, base_seed=item, workers=1,
            obs=obs)
        events = (None if obs is None
                  else obs.metrics.counter("kernel.events").value)
        return Outcome(result.digest(), result, events)

    def check(self, item: int, outcome: Outcome) -> List[str]:
        run = outcome.result.runs[0]
        if not run.completed:
            return [f"seed {item}: the detection-to-halt chain did not "
                    f"complete"]
        total = run.intervals_ms()["total"]
        if not total < DELAY_BUDGET_MS:
            return [f"seed {item}: total delay {total:.1f} ms is not "
                    f"under {DELAY_BUDGET_MS:.0f} ms"]
        return []


class Fleet(Workload):
    """A fleet scenario; subclasses fix the builder and its sizes."""

    def scenario(self, item: int) -> Any:
        raise NotImplementedError

    def setup(self, item: int) -> None:
        from repro.core.fleet import FleetTestbed
        from repro.core.fleet.result import fleet_runs_digest  # noqa: F401

        FleetTestbed(self.scenario(item))

    def run(self, item: int, observe: bool = False) -> Outcome:
        from repro.core.fleet import FleetTestbed
        from repro.core.fleet.result import fleet_runs_digest
        from repro.obs import ObsContext

        ctx = ObsContext() if observe else None
        result = FleetTestbed(self.scenario(item), obs=ctx).run()
        events = (None if ctx is None
                  else ctx.metrics.counter("kernel.events").value)
        return Outcome(fleet_runs_digest([result]), result, events)

    def check(self, item: int, outcome: Outcome) -> List[str]:
        result = outcome.result
        errors = []
        if result.verdict != "SAFE":
            errors.append(f"seed {item}: verdict {result.verdict}")
        if result.denm_delivered != result.n_obus:
            errors.append(f"seed {item}: DENM reached "
                          f"{result.denm_delivered}/{result.n_obus} OBUs")
        return errors


class FleetN32Corner(Fleet):
    name = "fleet_n32_corner"
    pool_size = 2

    def scenario(self, item: int) -> Any:
        from repro.core.fleet.scenario import blind_corner_fleet

        return blind_corner_fleet(n_obus=32, n_rsus=2, seed=item,
                                  duration=5.0)


class FleetN8Convoy(Fleet):
    name = "fleet_n8_convoy"
    pool_size = 4

    def scenario(self, item: int) -> Any:
        from repro.core.fleet.scenario import convoy_fleet

        return convoy_fleet(n_obus=8, n_rsus=2, convoy_members=4,
                            seed=item)


class LintSrc(Workload):
    """detlint over the repository's own ``src``.

    The source tree is the input, so the seed cannot change the work:
    it permutes the order in which the entries of ``src/repro`` are
    passed, and the findings must not depend on that order.
    """

    name = "lint_src"
    simulated = False
    root = os.path.join("src", "repro")

    def paths(self, item: int) -> List[str]:
        entries = sorted(
            os.path.join(self.root, entry)
            for entry in os.listdir(self.root)
            if entry.endswith(".py")
            or os.path.isfile(os.path.join(self.root, entry, "__init__.py")))
        random.Random(item).shuffle(entries)
        return entries

    def setup(self, item: int) -> None:
        from repro.analysis import lint_paths  # noqa: F401
        from repro.analysis.engine import discover_files

        discover_files(self.paths(item))

    def run(self, item: int, observe: bool = False) -> Outcome:
        from repro.analysis import lint_paths

        result = lint_paths(self.paths(item))
        text = json.dumps([finding.to_dict() for finding in result.findings],
                          sort_keys=True)
        return Outcome(hashlib.sha256(text.encode("utf-8")).hexdigest(),
                       result)

    def check(self, item: int, outcome: Outcome) -> List[str]:
        from repro.analysis.engine import discover_files

        result = outcome.result
        errors = []
        if result.findings:
            errors.append(f"{len(result.findings)} finding(s), first: "
                          f"{result.findings[0]}")
        expected = len(discover_files([os.path.dirname(self.root)]))
        if result.files_checked != expected:
            errors.append(f"checked {result.files_checked} files, "
                          f"src holds {expected}")
        return errors


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperBrake(), FleetN32Corner(), FleetN8Convoy(),
                     LintSrc())
}
