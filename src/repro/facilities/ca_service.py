"""Cooperative Awareness basic service (EN 302 637-2).

Implements the adaptive CAM generation rules: a check runs every
``t_check`` (100 ms); a CAM is generated when

* the station dynamics changed significantly since the last CAM
  (heading by > 4 degrees, position by > 4 m, or speed by > 0.5 m/s)
  and at least ``t_gen_cam_min`` elapsed, or
* ``t_gen_cam`` elapsed (the adaptive upper period: after
  ``n_gen_cam`` consecutive dynamics-triggered CAMs the upper period
  locks to the triggering interval, relaxing back to 1 s).

Received CAMs are decoded, inserted in the LDM as VEHICLE objects and
handed to application callbacks.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet.btp import BtpPort
from repro.geonet.position import GeoPosition
from repro.geonet.router import GeoNetRouter
from repro.messages.cam import Cam, generation_delta_time
from repro.messages.common import ReferencePosition
from repro.net.frame import AccessCategory
from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class StationState:
    """A snapshot of the station's own dynamics, fed to the CA service."""

    position: GeoPosition
    heading: float = 0.0        # degrees clockwise from north
    speed: float = 0.0          # m/s
    acceleration: float = 0.0   # m/s^2
    yaw_rate: float = 0.0       # deg/s
    curvature: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class CaConfig:
    """Generation-rule parameters (EN 302 637-2 defaults)."""

    t_check: float = 0.1
    t_gen_cam_min: float = 0.1
    t_gen_cam_max: float = 1.0
    n_gen_cam: int = 3
    heading_threshold_deg: float = 4.0
    position_threshold_m: float = 4.0
    speed_threshold_mps: float = 0.5
    #: Period of the low-frequency container (vehicle role, exterior
    #: lights, path history); EN 302 637-2: at most every 500 ms.
    t_low_frequency: float = 0.5
    #: Path-history points carried in the LF container.
    path_history_points: int = 23
    #: CAM validity horizon when stored in a receiver's LDM (s).
    ldm_lifetime: float = 1.1
    #: Delay before the first generation check (s); None keeps the
    #: legacy ``t_check``.  Fleet scenarios give every station a
    #: distinct phase so N stations never check at the same kernel
    #: timestamp (tie-break invariance).
    start_offset: Optional[float] = None


CamCallback = Callable[[Cam], None]


class CaBasicService:
    """One station's CA service (transmit and receive sides)."""

    def __init__(
        self,
        sim: Simulator,
        router: GeoNetRouter,
        ldm: Ldm,
        station_id: int,
        station_type: int,
        state_provider: Callable[[], StationState],
        its_time: Callable[[], int],
        config: Optional[CaConfig] = None,
        enabled: bool = True,
        is_rsu: bool = False,
        vehicle_length: float = 0.53,
        vehicle_width: float = 0.30,
    ):
        self.sim = sim
        self.router = router
        self.ldm = ldm
        self.station_id = station_id
        self.station_type = station_type
        self.state_provider = state_provider
        self.its_time = its_time
        self.config = config or CaConfig()
        self.is_rsu = is_rsu
        self.vehicle_length = vehicle_length
        self.vehicle_width = vehicle_width
        self._last_cam_state: Optional[StationState] = None
        self._last_cam_time: Optional[float] = None
        self._last_lf_time: Optional[float] = None
        self._path: List[GeoPosition] = []
        self._t_gen_cam = self.config.t_gen_cam_max
        self._consecutive_dynamic = 0
        self._callbacks: List[CamCallback] = []
        self.cams_sent = 0
        self.cams_received = 0
        router.btp.register(BtpPort.CAM, self._on_payload)
        if enabled:
            first = (self.config.t_check
                     if self.config.start_offset is None
                     else self.config.start_offset)
            sim.schedule(first, self._check_tick)

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------

    def _check_tick(self) -> None:
        self._maybe_generate()
        self.sim.schedule(self.config.t_check, self._check_tick)

    def _maybe_generate(self) -> None:
        state = self.state_provider()
        now = self.sim.now
        if self._last_cam_time is None:
            self._generate(state)
            return
        elapsed = now - self._last_cam_time
        if elapsed < self.config.t_gen_cam_min:
            return
        if self._dynamics_changed(state):
            # Dynamics rule: lock the adaptive period to this interval.
            self._consecutive_dynamic += 1
            if self._consecutive_dynamic >= self.config.n_gen_cam:
                self._t_gen_cam = min(
                    max(elapsed, self.config.t_gen_cam_min),
                    self.config.t_gen_cam_max)
            self._generate(state)
            return
        if elapsed >= self._t_gen_cam:
            self._consecutive_dynamic = 0
            self._t_gen_cam = self.config.t_gen_cam_max
            self._generate(state)

    def _dynamics_changed(self, state: StationState) -> bool:
        assert self._last_cam_state is not None
        last = self._last_cam_state
        heading_delta = abs(
            (state.heading - last.heading + 180.0) % 360.0 - 180.0)
        if heading_delta > self.config.heading_threshold_deg:
            return True
        if (last.position.distance_to(state.position)
                > self.config.position_threshold_m):
            return True
        return (abs(state.speed - last.speed)
                > self.config.speed_threshold_mps)

    def _generate(self, state: StationState) -> None:
        include_lf = (
            not self.is_rsu
            and (self._last_lf_time is None
                 or self.sim.now - self._last_lf_time
                 >= self.config.t_low_frequency))
        path_history: tuple = ()
        if include_lf:
            self._last_lf_time = self.sim.now
            # Deltas from the current position back along the path.
            path_history = tuple(
                (previous.latitude - state.position.latitude,
                 previous.longitude - state.position.longitude)
                for previous in reversed(self._path)
            )[:self.config.path_history_points]
        cam = Cam(
            station_id=self.station_id,
            station_type=self.station_type,
            generation_delta_time=generation_delta_time(self.its_time()),
            position=ReferencePosition(
                latitude=state.position.latitude,
                longitude=state.position.longitude,
            ),
            heading=state.heading,
            speed=state.speed,
            longitudinal_acceleration=state.acceleration,
            curvature=state.curvature,
            yaw_rate=state.yaw_rate,
            vehicle_length=self.vehicle_length,
            vehicle_width=self.vehicle_width,
            is_rsu=self.is_rsu,
            exterior_lights=(0,) * 8 if include_lf else None,
            path_history=path_history,
        )
        payload = cam.encode()
        obs = self.sim.obs
        if obs is not None:
            obs.count("ca.cams_sent", device=str(self.station_id))
        self.router.send_shb(payload, BtpPort.CAM,
                             traffic_class=AccessCategory.AC_VI)
        self._last_cam_state = state
        self._last_cam_time = self.sim.now
        self._path.append(state.position)
        if len(self._path) > self.config.path_history_points:
            del self._path[0]
        self.cams_sent += 1

    def force_generate(self) -> None:
        """Generate a CAM immediately (outside the rules); test hook."""
        self._generate(self.state_provider())

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def on_cam(self, callback: CamCallback) -> None:
        """Register an application callback for received CAMs."""
        self._callbacks.append(callback)

    def _on_payload(self, payload: bytes, _context: object) -> None:
        cam = Cam.decode(payload)
        obs = self.sim.obs
        if obs is not None:
            obs.count("ca.cams_received", device=str(self.station_id))
        self.cams_received += 1
        self.ldm.put(LdmObject(
            key=f"cam:{cam.station_id}",
            kind=ObjectKind.VEHICLE,
            position=GeoPosition(cam.position.latitude,
                                 cam.position.longitude),
            timestamp=self.sim.now,
            valid_until=self.sim.now + self.config.ldm_lifetime,
            data=cam,
            source="cam",
            station_id=cam.station_id,
            speed=cam.speed,
            heading=cam.heading,
        ))
        for callback in self._callbacks:
            callback(cam)

    @property
    def current_period(self) -> float:
        """The adaptive upper CAM period currently in force (s)."""
        return self._t_gen_cam
