"""Decentralized Environmental Notification basic service (EN 302 637-3).

Originator side: applications call :meth:`DenBasicService.trigger` /
``update`` / ``cancel``; the service allocates ActionIDs, GeoBroadcasts
the DENM into the relevance area, and optionally repeats the
transmission every ``repetition_interval`` for ``repetition_duration``
(repetition makes up for lost frames since broadcasts are unacked).

Receiver side: DENMs are classified as *new*, *update*, *repetition*
or *termination* per ActionID/referenceTime, stored as EVENT objects
in the LDM, and handed to application callbacks -- the vehicle's
Message Handler in the paper's architecture.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet.btp import BtpPort
from repro.geonet.position import GeoPosition
from repro.geonet.router import CircularArea, GeoNetRouter
from repro.messages.denm import ActionId, Denm
from repro.net.frame import AccessCategory
from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class DenConfig:
    """Service parameters."""

    #: Default GeoBroadcast relevance area radius (m).
    default_area_radius: float = 50.0
    #: Default validity of an event if the DENM does not carry one (s).
    default_validity: float = 600.0
    #: GBC hop limit for DENMs.
    hop_limit: int = 3


DenmCallback = Callable[[Denm, str], None]


@dataclasses.dataclass
class _OriginatedEvent:
    denm: Denm
    area: CircularArea
    repetition_interval: Optional[float]
    repetition_until: float
    cancelled: bool = False


class DenBasicService:
    """One station's DEN service (originator and receiver sides)."""

    def __init__(
        self,
        sim: Simulator,
        router: GeoNetRouter,
        ldm: Ldm,
        station_id: int,
        station_type: int,
        its_time: Callable[[], int],
        config: Optional[DenConfig] = None,
    ):
        self.sim = sim
        self.router = router
        self.ldm = ldm
        self.station_id = station_id
        self.station_type = station_type
        self.its_time = its_time
        self.config = config or DenConfig()
        self._next_sequence = 0
        self._originated: Dict[ActionId, _OriginatedEvent] = {}
        self._received: Dict[ActionId, int] = {}  # ActionId -> referenceTime
        self._callbacks: List[DenmCallback] = []
        self.denms_sent = 0
        self.denms_received = 0
        self.repetitions_sent = 0
        router.btp.register(BtpPort.DENM, self._on_payload)

    # ------------------------------------------------------------------
    # Originator side
    # ------------------------------------------------------------------

    def allocate_action_id(self) -> ActionId:
        """A fresh ActionID for this station."""
        action = ActionId(self.station_id, self._next_sequence)
        self._next_sequence = (self._next_sequence + 1) % 65536
        return action

    def trigger(
        self,
        denm: Denm,
        area: Optional[CircularArea] = None,
        repetition_interval: Optional[float] = None,
        repetition_duration: float = 0.0,
    ) -> ActionId:
        """Disseminate *denm* (built by the application).

        The DENM's ``action_id`` must come from
        :meth:`allocate_action_id` so this station owns the event.
        """
        if denm.action_id.station_id != self.station_id:
            raise ValueError(
                f"cannot originate event owned by station "
                f"{denm.action_id.station_id} from station {self.station_id}"
            )
        if area is None:
            area = CircularArea(
                center=GeoPosition(denm.event_position.latitude,
                                   denm.event_position.longitude),
                radius=self.config.default_area_radius,
            )
        event = _OriginatedEvent(
            denm=denm,
            area=area,
            repetition_interval=repetition_interval,
            repetition_until=self.sim.now + repetition_duration,
        )
        self._originated[denm.action_id] = event
        self._send(denm, area)
        if repetition_interval is not None and repetition_duration > 0:
            self.sim.schedule(repetition_interval,
                              lambda: self._repeat(denm.action_id))
        return denm.action_id

    def update(self, action_id: ActionId, denm: Denm) -> None:
        """Send an update for an originated event (new referenceTime)."""
        event = self._require_event(action_id)
        updated = dataclasses.replace(
            denm, action_id=action_id, reference_time=self.its_time())
        event.denm = updated
        self._send(updated, event.area)

    def cancel(self, action_id: ActionId) -> None:
        """Send a cancellation for an event this station originated."""
        event = self._require_event(action_id)
        event.cancelled = True
        cancellation = event.denm.terminate(
            reference_time=self.its_time(), termination="isCancellation")
        self._send(cancellation, event.area)

    def negate(self, denm: Denm) -> None:
        """Negate an event originated by *another* station."""
        negation = denm.terminate(
            reference_time=self.its_time(), termination="isNegation")
        area = CircularArea(
            center=GeoPosition(denm.event_position.latitude,
                               denm.event_position.longitude),
            radius=self.config.default_area_radius,
        )
        self._send(negation, area)

    def _require_event(self, action_id: ActionId) -> _OriginatedEvent:
        event = self._originated.get(action_id)
        if event is None:
            raise KeyError(f"unknown originated event {action_id}")
        return event

    def _send(self, denm: Denm, area: CircularArea) -> None:
        payload = denm.encode()
        obs = self.sim.obs
        if obs is not None:
            obs.count("den.denms_sent", device=str(self.station_id))
        self.router.send_gbc(
            payload, BtpPort.DENM, area,
            hop_limit=self.config.hop_limit,
            traffic_class=AccessCategory.AC_VO,
        )
        self.denms_sent += 1

    def _repeat(self, action_id: ActionId) -> None:
        event = self._originated.get(action_id)
        if event is None or event.cancelled:
            return
        if self.sim.now > event.repetition_until:
            return
        self._send(event.denm, event.area)
        self.repetitions_sent += 1
        assert event.repetition_interval is not None
        self.sim.schedule(event.repetition_interval,
                          lambda: self._repeat(action_id))

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_denm(self, callback: DenmCallback) -> None:
        """Register ``callback(denm, classification)``.

        ``classification`` is one of ``"new"``, ``"update"``,
        ``"repetition"`` or ``"termination"``.
        """
        self._callbacks.append(callback)

    def _on_payload(self, payload: bytes, _context: object) -> None:
        denm = Denm.decode(payload)
        obs = self.sim.obs
        if obs is not None:
            obs.count("den.denms_received", device=str(self.station_id))
        self.denms_received += 1
        classification = self._classify(denm)
        if classification == "termination":
            self.ldm.remove(f"denm:{denm.action_id.station_id}"
                            f":{denm.action_id.sequence_number}")
        else:
            self._store(denm)
        for callback in self._callbacks:
            callback(denm, classification)

    def _classify(self, denm: Denm) -> str:
        if denm.is_termination:
            self._received.pop(denm.action_id, None)
            return "termination"
        last_reference = self._received.get(denm.action_id)
        self._received[denm.action_id] = denm.reference_time
        if last_reference is None:
            return "new"
        if denm.reference_time > last_reference:
            return "update"
        return "repetition"

    def _store(self, denm: Denm) -> None:
        validity = (denm.validity_duration
                    if denm.validity_duration is not None
                    else self.config.default_validity)
        self.ldm.put(LdmObject(
            key=(f"denm:{denm.action_id.station_id}"
                 f":{denm.action_id.sequence_number}"),
            kind=ObjectKind.EVENT,
            position=GeoPosition(denm.event_position.latitude,
                                 denm.event_position.longitude),
            timestamp=self.sim.now,
            valid_until=self.sim.now + validity,
            data=denm,
            source="denm",
            station_id=denm.action_id.station_id,
        ))

    def originated_events(self) -> Tuple[ActionId, ...]:
        """ActionIDs of the events this station currently originates."""
        return tuple(action for action, event in self._originated.items()
                     if not event.cancelled)
