"""Fleet run/campaign results with canonical digests.

Every quantity here is simulation state -- no wall-clock, no pids --
so :meth:`FleetRunResult.to_dict` is a *canonical* form: serialising
the same run twice, on different worker counts or under different
kernel tie-break policies, yields byte-identical JSON.  The campaign
digest (SHA-256 over the sorted-key JSON of all runs) is the
bit-identity oracle the fleet test battery checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.fleet.scenario import FleetScenario, fleet_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import ObsAggregate


def _encode_float(value: float) -> object:
    """JSON-portable float: infinities become tagged strings."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_float(value: object) -> float:
    """Inverse of :func:`_encode_float`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)  # type: ignore[arg-type]


@dataclasses.dataclass
class FleetRunResult:
    """Everything one fleet run measures."""

    run_id: int
    seed: int
    n_obus: int
    n_rsus: int
    workload: str
    #: When the edge issued the warning (sim s).
    warning_time: float
    #: Warning -> first DENM at each OBU's web API (ms); None = never.
    denm_latency_ms: Dict[str, Optional[float]]
    #: OBUs the DENM reached within the run.
    denm_delivered: int
    cams_sent: int
    cams_received: int
    #: Medium frame counters (sent/delivered/lost_*).
    medium: Dict[str, int]
    #: DCC state transitions per station over the run.
    dcc_state_transitions: Dict[str, int]
    #: DCC state (as int) per station at the end of the run.
    dcc_final_state: Dict[str, int]
    #: 1 s channel busy ratio per station at the end of the run.
    cbr: Dict[str, float]
    #: Frames the DCC gates dropped fleet-wide (queue overflow).
    dcc_frames_dropped: int
    #: Workload verdict: SAFE | LATE | NO_STOP | PILE_UP | N_A.
    verdict: str
    #: Convoy: minimum inter-vehicle gap (m); inf when not applicable.
    min_gap: float
    collisions: int
    #: Participant vehicles that reached a standstill.
    halted: int

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (station maps sorted by name)."""
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "n_obus": self.n_obus,
            "n_rsus": self.n_rsus,
            "workload": self.workload,
            "warning_time": self.warning_time,
            "denm_latency_ms": {
                name: self.denm_latency_ms[name]
                for name in sorted(self.denm_latency_ms)},
            "denm_delivered": self.denm_delivered,
            "cams_sent": self.cams_sent,
            "cams_received": self.cams_received,
            "medium": {key: self.medium[key]
                       for key in sorted(self.medium)},
            "dcc_state_transitions": {
                name: self.dcc_state_transitions[name]
                for name in sorted(self.dcc_state_transitions)},
            "dcc_final_state": {
                name: self.dcc_final_state[name]
                for name in sorted(self.dcc_final_state)},
            "cbr": {name: self.cbr[name] for name in sorted(self.cbr)},
            "dcc_frames_dropped": self.dcc_frames_dropped,
            "verdict": self.verdict,
            "min_gap": _encode_float(self.min_gap),
            "collisions": self.collisions,
            "halted": self.halted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetRunResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        return cls(
            run_id=int(data["run_id"]),
            seed=int(data["seed"]),
            n_obus=int(data["n_obus"]),
            n_rsus=int(data["n_rsus"]),
            workload=str(data["workload"]),
            warning_time=float(data["warning_time"]),
            denm_latency_ms={
                name: (None if value is None else float(value))
                for name, value in data["denm_latency_ms"].items()},
            denm_delivered=int(data["denm_delivered"]),
            cams_sent=int(data["cams_sent"]),
            cams_received=int(data["cams_received"]),
            medium={key: int(value)
                    for key, value in data["medium"].items()},
            dcc_state_transitions={
                name: int(value) for name, value
                in data["dcc_state_transitions"].items()},
            dcc_final_state={
                name: int(value) for name, value
                in data["dcc_final_state"].items()},
            cbr={name: float(value)
                 for name, value in data["cbr"].items()},
            dcc_frames_dropped=int(data["dcc_frames_dropped"]),
            verdict=str(data["verdict"]),
            min_gap=_decode_float(data["min_gap"]),
            collisions=int(data["collisions"]),
            halted=int(data["halted"]),
        )

    def latencies(self) -> List[float]:
        """The delivered DENM latencies (ms), station order."""
        return [value for _, value in sorted(self.denm_latency_ms.items())
                if value is not None]

    @property
    def delivered_fraction(self) -> float:
        """Share of OBUs the warning reached."""
        if not self.denm_latency_ms:
            return 0.0
        return self.denm_delivered / len(self.denm_latency_ms)

    @property
    def total_dcc_transitions(self) -> int:
        """DCC state transitions summed over the fleet."""
        return sum(self.dcc_state_transitions.values())

    @property
    def mean_cbr(self) -> float:
        """Fleet-mean end-of-run CBR."""
        if not self.cbr:
            return 0.0
        return sum(self.cbr.values()) / len(self.cbr)


def canonical_json(payload: Any) -> str:
    """The canonical JSON text digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def fleet_runs_digest(results: Sequence[FleetRunResult]) -> str:
    """SHA-256 over the canonical JSON of *results* in order."""
    text = canonical_json([result.to_dict() for result in results])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class FleetCampaignResult:
    """All runs of one fleet campaign, plus optional observability."""

    scenario: FleetScenario
    runs: List[FleetRunResult]
    obs: Optional["ObsAggregate"] = None

    def digest(self) -> str:
        """The campaign's canonical bit-identity digest."""
        return fleet_runs_digest(self.runs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: scenario, runs, digest (obs excluded)."""
        return {
            "scenario": dataclasses.asdict(self.scenario),
            "fingerprint": fleet_fingerprint(self.scenario),
            "digest": self.digest(),
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FleetCampaignResult":
        """Inverse of :meth:`to_dict` (the obs aggregate is not part
        of the canonical form and comes back as ``None``)."""
        result = cls(
            scenario=FleetScenario.from_dict(payload["scenario"]),
            runs=[FleetRunResult.from_dict(run)
                  for run in payload["runs"]],
        )
        if payload.get("digest") not in (None, result.digest()):
            raise ValueError("fleet campaign digest mismatch: payload "
                             "does not reproduce its recorded digest")
        return result

    def mean_latency_ms(self) -> Optional[float]:
        """Mean delivered DENM latency across all runs (ms)."""
        values = [value for run in self.runs for value in run.latencies()]
        if not values:
            return None
        return sum(values) / len(values)

    def delivered_fraction(self) -> float:
        """Mean per-run share of OBUs the warning reached."""
        if not self.runs:
            return 0.0
        return (sum(run.delivered_fraction for run in self.runs)
                / len(self.runs))
