"""The ``bench`` subcommand: a fixed perf grid with a JSON artefact.

Runs a fixed scenario/seed grid (the default emergency-braking
scenario, seeds ``base_seed .. base_seed + runs - 1``) fully
instrumented, and emits one machine-readable ``BENCH_<rev>.json``
per invocation: wall time, runs/sec, kernel event throughput,
per-stage sim-time span statistics and the wall-clock profile of the
hot paths.  Committing one artefact per revision gives every future
PR a perf trajectory to compare against -- the continuous-measurement
habit the city-scale ITS testbeds stress.

The payload is validated against :data:`BENCH_SCHEMA` before it is
written (built-in structural validation, plus ``jsonschema`` when the
package is importable), so a malformed artefact fails the producer,
not a later consumer.
"""

from __future__ import annotations

import json
import math
import subprocess
from typing import Any, Dict, Optional

import repro
from repro.obs.context import ObsAggregate

#: JSON Schema (draft-07) for the bench artefact.
BENCH_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro bench artefact",
    "type": "object",
    "required": ["schema_version", "revision", "package_version",
                 "grid", "wall", "kernel", "spans", "wall_sites",
                 "metrics"],
    "properties": {
        "schema_version": {"const": 1},
        "revision": {"type": "string", "minLength": 1},
        "package_version": {"type": "string", "minLength": 1},
        "grid": {
            "type": "object",
            "required": ["scenario", "runs", "base_seed"],
            "properties": {
                "scenario": {"type": "string"},
                "runs": {"type": "integer", "minimum": 1},
                "base_seed": {"type": "integer"},
            },
        },
        "wall": {
            "type": "object",
            "required": ["total_s", "runs_per_sec", "per_run_s"],
            "properties": {
                "total_s": {"type": "number", "minimum": 0},
                "runs_per_sec": {"type": "number"},
                "per_run_s": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                },
            },
        },
        "kernel": {
            "type": "object",
            "required": ["events", "events_per_sec"],
            "properties": {
                "events": {"type": "number", "minimum": 0},
                "events_per_sec": {"type": "number"},
            },
        },
        "spans": {"type": "object"},
        "wall_sites": {"type": "object"},
        "metrics": {"type": "object"},
        "fleet": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n_obus", "n_rsus", "wall_s",
                             "kernel_events", "events_per_sec",
                             "frames_sent", "frames_delivered",
                             "cbr_mean"],
                "properties": {
                    "n_obus": {"type": "integer", "minimum": 1},
                    "n_rsus": {"type": "integer", "minimum": 1},
                    "wall_s": {"type": "number", "minimum": 0},
                    "kernel_events": {"type": "number", "minimum": 0},
                    "events_per_sec": {"type": "number"},
                    "frames_sent": {"type": "integer", "minimum": 0},
                    "frames_delivered": {"type": "integer",
                                         "minimum": 0},
                    "cbr_mean": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}

#: Span stat entries must carry exactly these keys.
_STAT_KEYS = {"count", "total_s", "min_s", "max_s", "mean_s"}


def current_revision() -> str:
    """The current git short revision, or ``unknown`` outside a repo."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return output or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def default_output_path(revision: Optional[str] = None) -> str:
    """``BENCH_<rev>.json`` for *revision* (default: current HEAD)."""
    return f"BENCH_{revision or current_revision()}.json"


#: The default fleet-size axis: solo / light / congested channel.
DEFAULT_FLEET_SIZES = (1, 8, 32)


def _bench_fleet(sizes: Any, base_seed: int) -> list:
    """One instrumented fleet run per OBU count in *sizes*."""
    from repro.core.campaign import run_campaign_parallel
    from repro.core.fleet import FleetScenario

    entries = []
    for n_obus in sizes:
        scenario = FleetScenario(n_obus=n_obus, n_rsus=2, duration=5.0)
        obs = ObsAggregate()
        [result] = run_campaign_parallel(scenario, runs=1,
                                         base_seed=base_seed,
                                         obs=obs).runs
        wall = obs.total_wall_seconds
        events = float(obs.metrics.counter("kernel.events").value)
        entries.append({
            "n_obus": n_obus,
            "n_rsus": scenario.n_rsus,
            "wall_s": wall,
            "kernel_events": events,
            "events_per_sec": (events / wall if wall > 0
                               else float("nan")),
            "frames_sent": result.medium["sent"],
            "frames_delivered": result.medium["delivered"],
            "cbr_mean": result.mean_cbr,
        })
    return entries


def run_bench(runs: int = 5, base_seed: int = 1,
              fleet_sizes: Optional[Any] = None,
              progress: Optional[Any] = None) -> Dict[str, Any]:
    """Run the fixed grid instrumented; returns the validated payload.

    The grid is deliberately frozen -- the default
    :class:`~repro.core.scenario.EmergencyBrakeScenario` over *runs*
    consecutive seeds, serial, uncached -- so two artefacts from
    different revisions measure the same work.  *fleet_sizes* adds an
    optional fleet-size axis: one instrumented
    :class:`~repro.core.fleet.FleetTestbed` run per OBU count, so the
    artefact also tracks how throughput scales with station count.
    """
    from repro.core.campaign import run_campaign_parallel
    from repro.core.scenario import EmergencyBrakeScenario

    if runs < 1:
        raise ValueError(f"bench needs at least one run, got {runs}")
    obs = ObsAggregate()
    run_campaign_parallel(
        EmergencyBrakeScenario(), runs=runs, base_seed=base_seed,
        workers=1, obs=obs, progress=progress)

    total_wall = obs.total_wall_seconds
    kernel_events = obs.metrics.counter("kernel.events").value
    events_per_sec = (kernel_events / total_wall
                      if total_wall > 0 else float("nan"))
    payload = {
        "schema_version": 1,
        "revision": current_revision(),
        "package_version": repro.__version__,
        "grid": {
            "scenario": "emergency_brake_default",
            "runs": runs,
            "base_seed": base_seed,
        },
        "wall": {
            "total_s": total_wall,
            "runs_per_sec": obs.runs_per_second,
            "per_run_s": list(obs.run_wall_seconds),
        },
        "kernel": {
            "events": kernel_events,
            "events_per_sec": events_per_sec,
        },
        "spans": {name: stats.to_dict()
                  for name, stats in obs.span_stats_sorted().items()},
        "wall_sites": obs.wall.to_dict(),
        "metrics": obs.metrics.to_dict(),
    }
    if fleet_sizes is not None:
        payload["fleet"] = _bench_fleet(fleet_sizes, base_seed)
    validate_bench(payload)
    return payload


def write_bench(payload: Dict[str, Any], path: str) -> str:
    """Validate and write *payload* as JSON; returns *path*."""
    validate_bench(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")
    return path


def validate_bench(payload: Dict[str, Any]) -> None:
    """Check *payload* against :data:`BENCH_SCHEMA`.

    Raises ``ValueError`` with the offending path on any mismatch.
    Runs a built-in structural check always, plus a full
    ``jsonschema`` validation when that package is importable.
    """
    _validate_structurally(payload)
    try:
        import jsonschema
    except ImportError:
        return
    try:
        jsonschema.validate(payload, BENCH_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ValueError(f"bench payload fails schema: "
                         f"{err.message}") from err


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"bench payload invalid: {message}")


def _validate_structurally(payload: Dict[str, Any]) -> None:
    _require(isinstance(payload, dict), "payload must be an object")
    for key in BENCH_SCHEMA["required"]:
        _require(key in payload, f"missing key {key!r}")
    _require(payload["schema_version"] == 1, "schema_version must be 1")
    for key in ("revision", "package_version"):
        _require(isinstance(payload[key], str) and payload[key],
                 f"{key} must be a non-empty string")
    grid = payload["grid"]
    _require(isinstance(grid, dict), "grid must be an object")
    _require(isinstance(grid.get("scenario"), str), "grid.scenario")
    _require(isinstance(grid.get("runs"), int) and grid["runs"] >= 1,
             "grid.runs must be an integer >= 1")
    _require(isinstance(grid.get("base_seed"), int), "grid.base_seed")
    wall = payload["wall"]
    _require(isinstance(wall, dict), "wall must be an object")
    _require(_finite_nonneg(wall.get("total_s")), "wall.total_s")
    _require(_finite_number(wall.get("runs_per_sec")),
             "wall.runs_per_sec")
    _require(isinstance(wall.get("per_run_s"), list)
             and all(_finite_nonneg(v) for v in wall["per_run_s"]),
             "wall.per_run_s")
    _require(len(wall["per_run_s"]) == grid["runs"],
             "wall.per_run_s must have one entry per run")
    kernel = payload["kernel"]
    _require(isinstance(kernel, dict), "kernel must be an object")
    _require(_finite_nonneg(kernel.get("events")), "kernel.events")
    _require(_finite_number(kernel.get("events_per_sec")),
             "kernel.events_per_sec")
    for section in ("spans", "wall_sites"):
        stats = payload[section]
        _require(isinstance(stats, dict), f"{section} must be an object")
        for name, entry in stats.items():
            _require(isinstance(entry, dict)
                     and set(entry) == _STAT_KEYS,
                     f"{section}[{name!r}] must carry {_STAT_KEYS}")
    _require(isinstance(payload["metrics"], dict),
             "metrics must be an object")
    if "fleet" in payload:
        fleet = payload["fleet"]
        _require(isinstance(fleet, list), "fleet must be an array")
        for index, entry in enumerate(fleet):
            _require(isinstance(entry, dict),
                     f"fleet[{index}] must be an object")
            for key in ("n_obus", "n_rsus", "frames_sent",
                        "frames_delivered"):
                _require(isinstance(entry.get(key), int)
                         and not isinstance(entry.get(key), bool)
                         and entry[key] >= 0,
                         f"fleet[{index}].{key}")
            for key in ("wall_s", "kernel_events", "cbr_mean"):
                _require(_finite_nonneg(entry.get(key)),
                         f"fleet[{index}].{key}")
            _require(_finite_number(entry.get("events_per_sec")),
                     f"fleet[{index}].events_per_sec")


def _finite_number(value: Any) -> bool:
    return (isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value))


def _finite_nonneg(value: Any) -> bool:
    return _finite_number(value) and value >= 0
