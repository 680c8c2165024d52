"""The assembled ETSI ITS Collision Avoidance testbed (Figure 8).

One :class:`ScaleTestbed` is one experimental run: a fresh simulation
with the vehicle line-following towards the camera, the edge node
watching the Region of Interest, RSU and OBU on the shared 802.11p
channel, and the Message Handler polling the OBU.  Step events from
every device flow into a :class:`~repro.core.measurement.StepTimeline`;
:func:`run_campaign` repeats runs with different seeds to produce the
populations behind Table II, Table III and Figure 11.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.core.measurement import RunMeasurement, StepTimeline, Steps
from repro.core.scenario import EmergencyBrakeScenario
from repro.geonet.position import LocalFrame
from repro.messages.common import StationType
from repro.net.medium import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.openc2x.unit import OnBoardUnit, RoadSideUnit
from repro.roadside.camera import SceneObject
from repro.roadside.edge_node import EdgeNode
from repro.sim.kernel import build_simulator
from repro.sim.randomness import RandomStreams
from repro.vehicle.message_handler import MessageHandler
from repro.vehicle.robot import RoboticVehicle
from repro.vehicle.dynamics import VehicleState
from repro.vehicle.track import StraightTrack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import ObsAggregate, ObsContext

#: Station identifiers used by the testbed.
OBU_STATION_ID = 101
RSU_STATION_ID = 900


class ScaleTestbed:
    """One instantiated run of the emergency-braking experiment."""

    #: Action-point watcher period (s).
    WATCH_PERIOD = 1e-3

    def __init__(self, scenario: Optional[EmergencyBrakeScenario] = None,
                 run_id: int = 0, trace: bool = False,
                 obs: Optional["ObsContext"] = None):
        self.scenario = scenario or EmergencyBrakeScenario()
        self.run_id = run_id
        sc = self.scenario
        self.streams = RandomStreams(sc.seed)
        self.sim = build_simulator(sc.tie_break, self.streams)
        if obs is not None:
            obs.bind(self.sim)
        self.tracer = None
        if trace:
            from repro.sim.trace import Tracer

            self.tracer = Tracer(self.sim)
        self.frame = LocalFrame()
        self.medium = WirelessMedium(
            self.sim, self.streams.get("medium"),
            LinkBudget(path_loss=LogDistancePathLoss()))
        self.timeline = StepTimeline()

        # --- Vehicle: drives from +x towards the camera at the origin.
        track = StraightTrack(direction=math.pi)
        run_rng = self.streams.get("run")
        cruise = sc.cruise_throttle * (
            1.0 + sc.throttle_jitter * float(run_rng.normal()))
        self.vehicle = RoboticVehicle(
            self.sim, self.streams,
            name="vehicle",
            track=track,
            params=sc.vehicle_params,
            initial_state=VehicleState(
                x=sc.start_distance,
                y=-sc.lateral_start_offset,
                heading=math.pi),
            camera_fps=15.0,
            cruise_throttle=cruise,
            ntp=sc.ntp,
        )

        obu_security, rsu_security = self._build_security() \
            if sc.secured else (None, None)

        # --- OBU rides on the vehicle.
        self.obu = OnBoardUnit(
            self.sim, self.medium, self.streams,
            name="obu",
            station_id=OBU_STATION_ID,
            station_type=StationType.PASSENGER_CAR,
            position=lambda: self.frame.to_geo(*self.vehicle.position),
            dynamics=lambda: (self.vehicle.speed,
                              self.vehicle.heading_degrees),
            ntp=sc.ntp,
            http_config=sc.obu_http,
            stack_config=sc.stack,
            local_frame=self.frame,
            security=obu_security,
        )

        # --- RSU next to the camera.
        self.rsu = RoadSideUnit(
            self.sim, self.medium, self.streams,
            name="rsu",
            station_id=RSU_STATION_ID,
            station_type=StationType.ROAD_SIDE_UNIT,
            position=lambda: self.frame.to_geo(0.0, 0.5),
            ntp=sc.ntp,
            http_config=sc.rsu_http,
            stack_config=sc.stack,
            is_rsu=True,
            local_frame=self.frame,
            security=rsu_security,
        )

        # --- Warning delivery path: the edge posts /trigger_denm to
        # the RSU (802.11p DENM) or, in the future-work comparison, to
        # an application server that bridges it over a 5G cell.
        if sc.radio == "its_g5":
            hazard_target = self.rsu.http
        elif sc.radio == "5g":
            hazard_target = self._build_5g_bridge()
        else:
            raise ValueError(f"unknown radio {sc.radio!r}")

        # --- Edge node: camera at the origin looking along +x.
        self.edge = EdgeNode(
            self.sim, self.streams,
            rsu_server=hazard_target,
            camera_position=(0.0, 0.0),
            camera_facing=0.0,
            camera_fps=sc.camera_fps,
            camera_fov=sc.camera_fov,
            ntp=sc.ntp,
            yolo_config=sc.yolo,
            hazard_config=sc.hazard_config(),
            local_frame=self.frame,
            ldm=self.rsu.station.ldm,
        )
        self._register_scene_objects()

        # --- Message Handler polling the OBU (or a push channel).
        self.handler = MessageHandler(
            self.sim, self.obu.http, self.vehicle.planner,
            rng=self.streams.get("handler"),
            poll_interval=sc.obu_poll_interval,
            enabled=not sc.obu_push,
        )
        if sc.obu_push:
            self.obu.subscribe_push(self._on_pushed_denm)

        # --- Measurement wiring.
        self.edge.on_event(self._on_edge_event)
        self.rsu.on_event(self._on_rsu_event)
        self.obu.on_event(self._on_obu_event)
        self.vehicle.on_event(self._on_vehicle_event)
        self._detection_odometer: Optional[float] = None
        self._action_point_odometer: Optional[float] = None
        self._detection_record: Dict[str, Any] = {}
        self.sim.schedule(self.WATCH_PERIOD, self._watch_action_point)

    # ------------------------------------------------------------------
    # Security (TS 103 097 ablation)
    # ------------------------------------------------------------------

    def _build_security(self):
        from repro.security import RootCa
        from repro.security.certificates import TrustStore
        from repro.security.entity import SecurityEntity

        pki_rng = self.streams.get("pki")
        root = RootCa(pki_rng)
        authority = root.issue_authority(pki_rng, "aa-testbed")
        entities = []
        for name in ("obu", "rsu"):
            store = TrustStore(root.certificate, root.keys)
            store.add_authority(authority, now=self.sim.now)
            entities.append(SecurityEntity(
                self.sim, authority, store,
                self.streams.get(f"security.{name}")))
        return tuple(entities)

    # ------------------------------------------------------------------
    # 5G bridge (future-work comparison)
    # ------------------------------------------------------------------

    def _build_5g_bridge(self):
        from repro.net.fiveg import FivegCell
        from repro.openc2x.http import HttpServer

        self.cell = FivegCell(self.sim, self.streams.get("fiveg"))
        self._app_station = self.cell.station("app-server")
        self._ue = self.cell.station("obu-ue")
        self._ue.on_receive(self._on_5g_warning)
        self.app_server = HttpServer(
            self.sim, self.streams.get("appserver.http"), "app-server",
            self.scenario.rsu_http)
        self.app_server.route("/trigger_denm", self._handle_5g_trigger)
        return self.app_server

    def _handle_5g_trigger(self, body):
        # Step 3 equivalent: the application server dispatches the
        # warning towards the vehicle.
        self.timeline.record(
            Steps.RSU_SENT, sim_time=self.sim.now,
            clock_time=self.rsu.station.clock.now())
        self._app_station.send("obu-ue", body, 200)
        return 200, {"status": "dispatched"}

    def _on_5g_warning(self, body, _latency):
        self.obu.inject_denm({
            "actionId": {"originatingStationID": RSU_STATION_ID,
                         "sequenceNumber": 0},
            "situation": {
                "causeCode": body.get("causeCode", 97),
                "subCauseCode": body.get("subCauseCode", 0),
            },
            "termination": None,
        })

    # ------------------------------------------------------------------
    # Scene
    # ------------------------------------------------------------------

    def _register_scene_objects(self) -> None:
        sc = self.scenario
        vehicle = self.vehicle

        def vehicle_position():
            return vehicle.position

        def vehicle_heading():
            return vehicle.dynamics.state.heading

        def vehicle_speed():
            return vehicle.speed

        self.edge.watch(SceneObject(
            name="protagonist-marker",
            kind=sc.vehicle_marker,
            position=vehicle_position,
            heading=vehicle_heading,
            speed=vehicle_speed,
        ))
        if sc.include_bare_vehicle:
            self.edge.watch(SceneObject(
                name="protagonist-chassis",
                kind="scale_vehicle",
                position=vehicle_position,
                heading=vehicle_heading,
                speed=vehicle_speed,
            ))

    # ------------------------------------------------------------------
    # Step recording
    # ------------------------------------------------------------------

    def distance_to_camera(self) -> float:
        """Current true camera-to-vehicle distance (m)."""
        x, y = self.vehicle.position
        return math.hypot(x, y)

    def _trace(self, category: str, event: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.log(category, event, **fields)

    def _on_pushed_denm(self, record: Dict[str, Any]) -> None:
        if record.get("termination") is not None:
            return
        self.vehicle.planner.emergency_stop(reason="denm-push")

    def _watch_action_point(self) -> None:
        if self.timeline.has(Steps.ACTION_POINT):
            return
        if self.distance_to_camera() <= self.scenario.action_distance:
            self._trace("steps", "action_point_crossed",
                        speed=self.vehicle.speed)
            self._action_point_odometer = self.vehicle.dynamics.odometer
            self.timeline.record(
                Steps.ACTION_POINT, sim_time=self.sim.now,
                speed=self.vehicle.speed)
            return
        self.sim.schedule(
            # detlint: ignore[SCH001] -- benign: the watcher pulls
            # vehicle state via catch-up reads, so tick order at
            # shared sim-times is immaterial
            self.WATCH_PERIOD, self._watch_action_point)

    def _on_edge_event(self, event: str, record: Dict[str, Any]) -> None:
        if event != "hazard_detected":
            return
        if self._detection_odometer is None:
            self._detection_odometer = self.vehicle.dynamics.odometer
            self._detection_record = record
        self._trace("steps", "hazard_detected",
                    label=record.get("label"),
                    estimated_distance=record.get("estimated_distance"))
        self.timeline.record(
            Steps.DETECTION,
            sim_time=record["sim_time"],
            clock_time=record["clock_time"],
            label=record.get("label"),
            estimated_distance=record.get("estimated_distance"),
            true_distance=record.get("true_distance"),
        )

    def _on_rsu_event(self, event: str, record: Dict[str, Any]) -> None:
        if event == "denm_sent":
            self._trace("steps", "denm_sent")
            self.timeline.record(
                Steps.RSU_SENT,
                sim_time=record["sim_time"],
                clock_time=record["clock_time"])

    def _on_obu_event(self, event: str, record: Dict[str, Any]) -> None:
        if event == "denm_received":
            self._trace("steps", "denm_received")
            self.timeline.record(
                Steps.OBU_RECEIVED,
                sim_time=record["sim_time"],
                clock_time=record["clock_time"])

    def _on_vehicle_event(self, event: str, record: Dict[str, Any]) -> None:
        if event == "actuators_commanded":
            self._trace("steps", "actuators_commanded")
            self.timeline.record(
                Steps.ACTUATORS,
                sim_time=record["sim_time"],
                clock_time=record["clock_time"])
        elif event == "vehicle_halted":
            self._trace("steps", "vehicle_halted",
                        x=record.get("x"), y=record.get("y"))
            self.timeline.record(
                Steps.HALTED,
                sim_time=record["sim_time"],
                clock_time=record["clock_time"],
                x=record.get("x"), y=record.get("y"))
            obs = self.sim.obs
            if obs is not None:
                actuators = self.timeline.get(Steps.ACTUATORS)
                if actuators is not None:
                    obs.record_span("vehicle.brake", actuators.sim_time,
                                    record["sim_time"], device="vehicle")
            self.sim.stop()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    #: End-to-end spans derived from the step timeline after a run,
    #: named after the paper's Table II rows (see EXPERIMENTS.md).
    _E2E_SPANS = (
        ("e2e.detection_to_send", Steps.DETECTION, Steps.RSU_SENT),
        ("e2e.send_to_receive", Steps.RSU_SENT, Steps.OBU_RECEIVED),
        ("e2e.receive_to_actuation", Steps.OBU_RECEIVED, Steps.ACTUATORS),
        ("e2e.total", Steps.DETECTION, Steps.ACTUATORS),
        ("e2e.action_to_halt", Steps.ACTION_POINT, Steps.HALTED),
    )

    def _record_e2e_spans(self, obs: "ObsContext") -> None:
        for name, start_step, end_step in self._E2E_SPANS:
            start = self.timeline.get(start_step)
            end = self.timeline.get(end_step)
            if start is None or end is None:
                continue
            obs.record_span(name, start.sim_time, end.sim_time,
                            device="run")

    def run(self) -> RunMeasurement:
        """Execute the run and return its measurement."""
        self.sim.run_until(self.scenario.timeout)
        obs = self.sim.obs
        if obs is not None:
            self._record_e2e_spans(obs)
        measurement = RunMeasurement(run_id=self.run_id,
                                     timeline=self.timeline)
        action = self.timeline.get(Steps.ACTION_POINT)
        if action is not None:
            measurement.speed_at_action_point = action.detail.get(
                "speed", 0.0)
        detection = self.timeline.get(Steps.DETECTION)
        if detection is not None:
            measurement.detection_distance = detection.detail.get(
                "true_distance", 0.0)
            measurement.estimated_distance = detection.detail.get(
                "estimated_distance", 0.0)
        if self.timeline.has(Steps.HALTED):
            odometer = self.vehicle.dynamics.odometer
            if self._detection_odometer is not None:
                measurement.braking_distance = (
                    odometer - self._detection_odometer)
            if self._action_point_odometer is not None:
                measurement.distance_from_action_point = (
                    odometer - self._action_point_odometer)
            measurement.final_distance_to_camera = self.distance_to_camera()
            measurement.completed = self.timeline.complete
        return measurement


@dataclasses.dataclass
class CampaignResult:
    """A set of runs of the same scenario with different seeds."""

    scenario: EmergencyBrakeScenario
    runs: List[RunMeasurement]
    #: Aggregated observability data when the campaign ran with an
    #: :class:`~repro.obs.ObsAggregate`; None otherwise.
    obs: Optional["ObsAggregate"] = None

    def __post_init__(self) -> None:
        # Aggregation must not depend on completion order: parallel
        # campaigns stream results back as workers finish, so the
        # population is canonicalised by run_id before any statistic.
        self.runs = sorted(self.runs, key=lambda run: run.run_id)

    @property
    def completed_runs(self) -> List[RunMeasurement]:
        """Runs in which the whole chain executed."""
        return [run for run in self.runs if run.completed]

    def interval_samples(self, name: str, use_clock: bool = True,
                         ) -> np.ndarray:
        """All samples of one Table II row, in milliseconds."""
        values = []
        for run in self.completed_runs:
            intervals = run.intervals_ms(use_clock)
            value = intervals.get(name)
            if value is not None and not math.isnan(value):
                values.append(value)
        return np.asarray(values)

    def table2(self, use_clock: bool = True) -> Dict[str, Dict[str, float]]:
        """Table II: per-row samples and averages (ms)."""
        rows = {}
        for name in ("detection_to_send", "send_to_receive",
                     "receive_to_actuation", "total"):
            samples = self.interval_samples(name, use_clock)
            rows[name] = {
                "runs": [float(v) for v in samples],
                "avg": float(samples.mean()) if samples.size else float(
                    "nan"),
            }
        return rows

    def braking_distances(self) -> np.ndarray:
        """Table III: distance travelled from detection to halt (m)."""
        return np.asarray([run.braking_distance
                           for run in self.completed_runs])

    def total_delays_ms(self, use_clock: bool = True) -> np.ndarray:
        """The Figure 11 sample population (ms)."""
        return self.interval_samples("total", use_clock)

    def digest(self) -> str:
        """SHA-256 over the canonical run population.

        The bit-identity witness the backend-equivalence tests pin:
        two campaigns agree on every measurement of every run -- and
        hence on every derived statistic -- iff their digests match.
        Hashes the ordered run dicts only, not the observability
        aggregate, which has its own
        :meth:`~repro.obs.context.ObsAggregate.sim_digest`.
        """
        import hashlib

        from repro.core.fingerprint import canonical_json

        text = canonical_json([run.to_dict() for run in self.runs])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_campaign(scenario: Optional[EmergencyBrakeScenario] = None,
                 runs: int = 5, base_seed: int = 1) -> CampaignResult:
    """Run *runs* independent repetitions of *scenario*, serially.

    Thin compatibility wrapper over the campaign execution engine
    (:func:`repro.core.campaign.run_campaign_parallel`), which also
    offers worker pools, disk caching and progress streaming.
    """
    from repro.core.campaign import run_campaign_parallel

    return run_campaign_parallel(scenario, runs=runs,
                                 base_seed=base_seed, workers=1)
