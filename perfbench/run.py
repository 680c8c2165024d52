"""The repository's benchmark: one workload, timed, checked and reported.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_brake --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing and no ObsContext: set-up time over several fresh
interpreters, then whole passes over the workload's input pool for
``--seconds``.  ``--trace 1`` measures the per-layer metrics: each
input of the pool runs once untraced (the reference), once with an
ObsContext attached and once with the tracer installed; the first input
is traced once more.  The tracer is removed after every traced run.

Every operation is checked (see ``workloads.py``).  The traced and
observed passes must reproduce the untraced digests, and the traced
counts must repeat exactly.  Human-readable lines come first; the last
line of standard output is the JSON result.  Details, with the span
aggregates of a traced run, go to ``.perfbench/`` in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import PINNED, WORKLOADS, Outcome, Workload  # noqa: E402

#: Fresh interpreters started to measure set-up time.
SETUP_PROBES = 3
OUT_DIR = ".perfbench"


class Run:
    """Bookkeeping of one benchmark invocation: checks and failures."""

    def __init__(self, workload: Workload, seed: int,
                 pinned: Dict[str, Dict[int, str]]) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Digest of each item's first run; every later run must match.
        self.digests: Dict[int, str] = {}
        #: The first outcome of each item (fidelity report).
        self.first: Dict[int, Outcome] = {}

    def op(self, item: int, observe: bool = False,
           call: Optional[Any] = None) -> Tuple[Optional[Outcome], float]:
        """Run and check one operation; returns (outcome, wall seconds).

        The outcome is None when the operation raised or failed a check.
        """
        self.attempted += 1
        started = perf_counter()
        try:
            outcome = (call or self.workload.run)(item, observe)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            wall = perf_counter() - started
            self.fail(f"item {item}: raised\n{traceback.format_exc()}")
            return None, wall
        wall = perf_counter() - started
        errors = self.workload.check(item, outcome)
        errors += self.workload.pinned_errors(self.seed, item, outcome,
                                              self.pinned)
        first = self.digests.setdefault(item, outcome.digest)
        if outcome.digest != first:
            errors.append(f"item {item}: digest changed between repeats")
        self.first.setdefault(item, outcome)
        if errors:
            self.fail("; ".join(errors))
            return None, wall
        return outcome, wall

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.failures.append(message)

    def passes(self, seconds: float) -> List[float]:
        """Untraced whole passes over the pool for about *seconds*.

        At least one pass runs; another starts only when it is expected
        to end within the budget.  Returns the wall time of each
        successful operation.
        """
        items = self.workload.items(self.seed)
        walls: List[float] = []
        done = 0
        spent = 0.0
        while done == 0 or spent + spent / done <= seconds:
            started = perf_counter()
            for item in items:
                outcome, wall = self.op(item)
                if outcome is not None:
                    walls.append(wall)
            spent += perf_counter() - started
            done += 1
        return walls


def machine() -> Dict[str, Any]:
    """CPU model, core count and library versions of this host."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure_setup(workload: Workload, seed: int) -> List[float]:
    """Set-up seconds from SETUP_PROBES fresh interpreters, in order."""
    probe = os.path.join(HERE, "probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def fidelity(run: Run) -> List[str]:
    """paper_brake's Table II/III means against the paper, report-only."""
    if run.workload.name != "paper_brake" or not run.first:
        return []
    from repro.core.report import PAPER_TABLE2, PAPER_TABLE3

    runs = [outcome.result.runs[0] for outcome in run.first.values()]
    delay = statistics.fmean(r.intervals_ms()["total"] for r in runs)
    braking = statistics.fmean(r.braking_distance for r in runs)
    paper_delay = PAPER_TABLE2["total"][1]
    paper_braking = statistics.fmean(PAPER_TABLE3)
    return [
        f"fidelity  Table II total delay  {delay:8.2f} ms  paper "
        f"{paper_delay:.1f} ms  error {100 * (delay / paper_delay - 1):+.1f}%"
        f"  (n={len(runs)})",
        f"fidelity  Table III braking     {braking:8.4f} m   paper "
        f"{paper_braking:.3f} m   error "
        f"{100 * (braking / paper_braking - 1):+.1f}%  (n={len(runs)})",
    ]


def end_to_end(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict]:
    """The untraced metrics of ``--trace 0``."""
    run.op(run.workload.items(run.seed)[0])  # warm-up, checked too
    setup = measure_setup(run.workload, run.seed)
    walls = run.passes(seconds)
    if not walls:
        raise RuntimeError("no operation succeeded")
    metrics = {
        "runs_per_s": len(walls) / sum(walls),
        "run_wall_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"op_walls_s": walls, "setup_probes_s": setup}


def per_layer(run: Run) -> Tuple[Dict[str, float], Dict]:
    """The traced metrics of ``--trace 1``, with their untraced reference.

    Each item of the pool runs untraced, then with an ObsContext, then
    traced, so that slow phases of the host hit all three alike.  The
    tracer is installed only around the traced operations.
    """
    workload = run.workload
    items = workload.items(run.seed)
    run.op(items[0])  # warm-up, checked too
    tracer = tracing.Tracer()
    traced_call = tracer.wrap(
        workload.run,
        "core.fold_s" if workload.simulated else "analysis.engine_s")

    def traced_op(item: int) -> Dict[str, Any]:
        tracer.reset()
        tracer.install()
        try:
            outcome, wall = run.op(item, call=traced_call)
        finally:
            tracer.remove()
        return {"item": item, "ok": outcome is not None, "wall_s": wall,
                "sim_seconds": tracer.sim_seconds,
                "self_s": dict(tracer.self_s), "spans": dict(tracer.spans),
                "counts": dict(tracer.counts)}

    plain: List[float] = []
    observed_walls: List[float] = []
    observed_events = 0.0
    records: List[Dict[str, Any]] = []
    for item in items:
        plain.append(run.op(item)[1])
        if workload.simulated:
            outcome, wall = run.op(item, observe=True)
            observed_walls.append(wall)
            if outcome is not None:
                observed_events += outcome.kernel_events or 0.0
        records.append(traced_op(item))
    records.append(traced_op(items[0]))
    plain_per_op = statistics.fmean(plain)

    leftovers = tracer.leftovers()
    if leftovers:
        run.fail(f"tracer left wrappers behind: {leftovers}")
    first, repeat = records[0], records[-1]
    if first["counts"] != repeat["counts"]:
        run.fail(f"item {first['item']}: traced counts differ between "
                 f"repeats")
    traced = records[:-1]  # one per item; the repeat only checks counts
    events = sum(r["counts"].get("sim.events", 0) for r in traced)
    if workload.simulated and events != observed_events:
        run.fail(f"traced kernel events {events} != observed "
                 f"{observed_events:g}")

    ops = len(traced)
    metrics = {key: sum(r["self_s"].get(key, 0.0) for r in traced) / ops
               for key in tracing.TIME_KEYS}
    metrics.update({key: sum(r["counts"].get(key, 0) for r in traced) / ops
                    for key in tracing.COUNT_KEYS})
    attempts = metrics["net.receptions_attempted"]
    metrics["net.delivery_ratio"] = (
        metrics["net.frames_delivered"] / attempts if attempts else 0.0)
    traced_per_op = statistics.fmean(r["wall_s"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_per_op / plain_per_op
    metrics["events_per_s"] = events / ops / plain_per_op
    metrics["realtime_factor"] = (
        sum(r["sim_seconds"] for r in traced) / ops / plain_per_op)
    metrics["observed_events_per_s"] = (
        observed_events / sum(observed_walls) if observed_walls else 0.0)
    return metrics, {"op_walls_s": plain, "observed_walls_s": observed_walls,
                     "traced_ops": records}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              pinned: Optional[Dict[str, Dict[int, str]]] = None,
              ) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """Run one invocation; returns (result line, details, report lines)."""
    run = Run(WORKLOADS[name], seed, PINNED if pinned is None else pinned)
    metrics, details = per_layer(run) if trace else end_to_end(run, seconds)
    units = declared_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    host = machine()
    lines = [f"perfbench  workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "machine    " + " ".join(f"{k}={v}" for k, v in host.items())]
    samples = len(details["op_walls_s"])
    for key, entry in result["metrics"].items():
        note = f"  (n={samples})" if key == "run_wall_p50_s" else ""
        lines.append(f"  {key:28s} {entry['value']:14.6g} {entry['unit']}"
                     f"{note}")
    lines += fidelity(run)
    lines += [f"FAILED  {failure}" for failure in run.failures]
    details.update({"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": host,
                    "failures": run.failures, "digests": run.digests,
                    "result": result})
    return result, details, lines


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    result, details, lines = benchmark(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    print(f"details    {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
