"""Decentralized Environmental Notification Message (EN 302 637-3).

The wire schema (:data:`DENM_PDU`) implements the full container
structure of Figure 2 of the paper: ITS PDU header, mandatory
Management container, and optional Situation / Location / À-la-carte
containers.  The paper's own testbed used only the mandatory part
("DENMs with the mandatory structure (Header and Management
Container)"); this reproduction implements the optional containers as
well -- the extension the paper left as future work -- and the
collision-avoidance application fills the Situation container with
cause code 97 (Collision Risk).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

from repro.asn1 import (
    Boolean,
    Enumerated,
    Field,
    Integer,
    Sequence,
    SequenceOf,
)
from repro.messages import cause_codes
from repro.messages.common import (
    HEADING,
    ITS_PDU_HEADER,
    MessageId,
    PATH_POINT,
    REFERENCE_POSITION,
    ReferencePosition,
    SPEED,
    SPEED_UNAVAILABLE,
    StationTypeType,
    TimestampItsType,
    heading_to_wire,
    speed_from_wire,
    speed_to_wire,
)

SequenceNumberType = Integer(0, 65535, "SequenceNumber")

ACTION_ID = Sequence("ActionID", [
    Field("originatingStationID", Integer(0, 4294967295, "StationID")),
    Field("sequenceNumber", SequenceNumberType),
])

TerminationType = Enumerated(
    ["isCancellation", "isNegation"], "Termination")
RelevanceDistanceType = Enumerated(
    [
        "lessThan50m", "lessThan100m", "lessThan200m", "lessThan500m",
        "lessThan1000m", "lessThan5km", "lessThan10km", "over10km",
    ],
    "RelevanceDistance",
)
RelevanceTrafficDirectionType = Enumerated(
    [
        "allTrafficDirections", "upstreamTraffic", "downstreamTraffic",
        "oppositeTraffic",
    ],
    "RelevanceTrafficDirection",
)
ValidityDurationType = Integer(0, 86400, "ValidityDuration")
TransmissionIntervalType = Integer(1, 10000, "TransmissionInterval")

MANAGEMENT_CONTAINER = Sequence("ManagementContainer", [
    Field("actionID", ACTION_ID),
    Field("detectionTime", TimestampItsType),
    Field("referenceTime", TimestampItsType),
    Field("termination", TerminationType, optional=True),
    Field("eventPosition", REFERENCE_POSITION),
    Field("relevanceDistance", RelevanceDistanceType, optional=True),
    Field("relevanceTrafficDirection", RelevanceTrafficDirectionType,
          optional=True),
    Field("validityDuration", ValidityDurationType, optional=True),
    Field("transmissionInterval", TransmissionIntervalType, optional=True),
    Field("stationType", StationTypeType),
], extensible=True)

InformationQualityType = Integer(0, 7, "InformationQuality")

CAUSE_CODE_SEQ = Sequence("CauseCode", [
    Field("causeCode", Integer(0, 255, "CauseCodeType")),
    Field("subCauseCode", Integer(0, 255, "SubCauseCodeType")),
], extensible=True)

SITUATION_CONTAINER = Sequence("SituationContainer", [
    Field("informationQuality", InformationQualityType),
    Field("eventType", CAUSE_CODE_SEQ),
    Field("linkedCause", CAUSE_CODE_SEQ, optional=True),
], extensible=True)

PATH_HISTORY = SequenceOf(PATH_POINT, 0, 40, "PathHistory")
TRACES = SequenceOf(PATH_HISTORY, 1, 7, "Traces")

RoadTypeType = Enumerated(
    [
        "urban-NoStructuralSeparationToOppositeLanes",
        "urban-WithStructuralSeparationToOppositeLanes",
        "nonUrban-NoStructuralSeparationToOppositeLanes",
        "nonUrban-WithStructuralSeparationToOppositeLanes",
    ],
    "RoadType",
)

LOCATION_CONTAINER = Sequence("LocationContainer", [
    Field("eventSpeed", SPEED, optional=True),
    Field("eventPositionHeading", HEADING, optional=True),
    Field("traces", TRACES),
    Field("roadType", RoadTypeType, optional=True),
], extensible=True)

LanePositionType = Integer(-1, 14, "LanePosition")
TemperatureType = Integer(-60, 67, "Temperature")

STATIONARY_VEHICLE_CONTAINER = Sequence("StationaryVehicleContainer", [
    Field("stationarySince", Enumerated(
        ["lessThan1Minute", "lessThan2Minutes", "lessThan15Minutes",
         "equalOrGreater15Minutes"], "StationarySince"), optional=True),
    Field("carryingDangerousGoods", Boolean(), optional=True),
    Field("numberOfOccupants", Integer(0, 127, "NumberOfOccupants"),
          optional=True),
], extensible=True)

ALACARTE_CONTAINER = Sequence("AlacarteContainer", [
    Field("lanePosition", LanePositionType, optional=True),
    Field("externalTemperature", TemperatureType, optional=True),
    Field("stationaryVehicle", STATIONARY_VEHICLE_CONTAINER, optional=True),
], extensible=True)

DENM_BODY = Sequence("DecentralizedEnvironmentalNotificationMessage", [
    Field("management", MANAGEMENT_CONTAINER),
    Field("situation", SITUATION_CONTAINER, optional=True),
    Field("location", LOCATION_CONTAINER, optional=True),
    Field("alacarte", ALACARTE_CONTAINER, optional=True),
])

#: Complete DENM PDU schema.
DENM_PDU = Sequence("DENM", [
    Field("header", ITS_PDU_HEADER),
    Field("denm", DENM_BODY),
])

#: DENM protocol version carried in the header.
DENM_PROTOCOL_VERSION = 2

#: Default validityDuration when the sender does not set one (s).
DEFAULT_VALIDITY_DURATION = 600


@dataclasses.dataclass(frozen=True)
class ActionId:
    """DENM ActionID: (originating station, sequence number)."""

    station_id: int
    sequence_number: int

    def to_asn(self) -> dict:
        """Wire-form dict for :data:`ACTION_ID`."""
        return {
            "originatingStationID": self.station_id,
            "sequenceNumber": self.sequence_number,
        }

    @staticmethod
    def from_asn(value: dict) -> "ActionId":
        """Build from a decoded :data:`ACTION_ID` dict."""
        return ActionId(value["originatingStationID"],
                        value["sequenceNumber"])


@dataclasses.dataclass(frozen=True)
class EventType:
    """(causeCode, subCauseCode) pair."""

    cause_code: int
    sub_cause_code: int = 0

    def describe(self) -> str:
        """Human-readable description via the cause-code registry."""
        return cause_codes.describe_event(self.cause_code,
                                          self.sub_cause_code)


@dataclasses.dataclass(frozen=True)
class Denm:
    """An SI-unit DENM.

    Only ``action_id``, ``detection_time``, ``reference_time``,
    ``event_position`` and ``station_type`` are mandatory (the
    Management container); the rest mirrors the optional containers.
    Times are ITS timestamps (ms since 2004-01-01 UTC).
    """

    action_id: ActionId
    detection_time: int
    reference_time: int
    event_position: ReferencePosition
    station_type: int
    termination: Optional[str] = None
    relevance_distance: Optional[str] = None
    relevance_traffic_direction: Optional[str] = None
    validity_duration: Optional[int] = DEFAULT_VALIDITY_DURATION
    transmission_interval_ms: Optional[int] = None
    # Situation container
    event_type: Optional[EventType] = None
    information_quality: int = 0
    linked_cause: Optional[EventType] = None
    # Location container
    event_speed: Optional[float] = None          # m/s
    event_heading: Optional[float] = None        # degrees
    traces: Tuple[Tuple[Tuple[float, float], ...], ...] = ()
    road_type: Optional[str] = None
    # À-la-carte container
    lane_position: Optional[int] = None
    external_temperature: Optional[int] = None
    stationary_vehicle: bool = False

    # ------------------------------------------------------------------
    # Constructors for the use-case
    # ------------------------------------------------------------------

    @staticmethod
    def collision_risk(
        action_id: ActionId,
        detection_time: int,
        event_position: ReferencePosition,
        station_type: int,
        sub_cause: int = cause_codes.CROSSING_COLLISION_RISK,
        information_quality: int = 3,
        event_speed: Optional[float] = None,
        event_heading: Optional[float] = None,
    ) -> "Denm":
        """A Collision Risk DENM (cause code 97), as the edge node issues."""
        return Denm(
            action_id=action_id,
            detection_time=detection_time,
            reference_time=detection_time,
            event_position=event_position,
            station_type=station_type,
            event_type=EventType(cause_codes.COLLISION_RISK, sub_cause),
            information_quality=information_quality,
            event_speed=event_speed,
            event_heading=event_heading,
            relevance_distance="lessThan50m",
            relevance_traffic_direction="allTrafficDirections",
            validity_duration=10,
        )

    @staticmethod
    def stationary_vehicle_warning(
        action_id: ActionId,
        detection_time: int,
        event_position: ReferencePosition,
        station_type: int,
        sub_cause: int = 2,
        information_quality: int = 3,
    ) -> "Denm":
        """A Stationary Vehicle DENM (cause code 94)."""
        return Denm(
            action_id=action_id,
            detection_time=detection_time,
            reference_time=detection_time,
            event_position=event_position,
            station_type=station_type,
            event_type=EventType(cause_codes.STATIONARY_VEHICLE, sub_cause),
            information_quality=information_quality,
            stationary_vehicle=True,
        )

    def terminate(self, reference_time: int,
                  termination: str = "isCancellation") -> "Denm":
        """A cancellation / negation DENM for this event."""
        return dataclasses.replace(
            self,
            reference_time=reference_time,
            termination=termination,
        )

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------

    def to_asn(self) -> dict:
        """Build the wire-form dict for :data:`DENM_PDU`."""
        management = {
            "actionID": self.action_id.to_asn(),
            "detectionTime": self.detection_time,
            "referenceTime": self.reference_time,
            "eventPosition": self.event_position.to_asn(),
            "stationType": self.station_type,
        }
        if self.termination is not None:
            management["termination"] = self.termination
        if self.relevance_distance is not None:
            management["relevanceDistance"] = self.relevance_distance
        if self.relevance_traffic_direction is not None:
            management["relevanceTrafficDirection"] = (
                self.relevance_traffic_direction)
        if self.validity_duration is not None:
            management["validityDuration"] = self.validity_duration
        if self.transmission_interval_ms is not None:
            management["transmissionInterval"] = self.transmission_interval_ms

        body: dict = {"management": management}

        if self.event_type is not None:
            situation = {
                "informationQuality": self.information_quality,
                "eventType": {
                    "causeCode": self.event_type.cause_code,
                    "subCauseCode": self.event_type.sub_cause_code,
                },
            }
            if self.linked_cause is not None:
                situation["linkedCause"] = {
                    "causeCode": self.linked_cause.cause_code,
                    "subCauseCode": self.linked_cause.sub_cause_code,
                }
            body["situation"] = situation

        if (self.event_speed is not None or self.event_heading is not None
                or self.traces):
            location: dict = {"traces": self._traces_to_asn()}
            if self.event_speed is not None:
                location["eventSpeed"] = {
                    "speedValue": speed_to_wire(self.event_speed),
                    "speedConfidence": 5,
                }
            if self.event_heading is not None:
                location["eventPositionHeading"] = {
                    "headingValue": heading_to_wire(self.event_heading),
                    "headingConfidence": 10,
                }
            if self.road_type is not None:
                location["roadType"] = self.road_type
            body["location"] = location

        if (self.lane_position is not None
                or self.external_temperature is not None
                or self.stationary_vehicle):
            alacarte: dict = {}
            if self.lane_position is not None:
                alacarte["lanePosition"] = self.lane_position
            if self.external_temperature is not None:
                alacarte["externalTemperature"] = self.external_temperature
            if self.stationary_vehicle:
                alacarte["stationaryVehicle"] = {
                    "stationarySince": "lessThan1Minute",
                }
            body["alacarte"] = alacarte

        return {
            "header": {
                "protocolVersion": DENM_PROTOCOL_VERSION,
                "messageID": MessageId.DENM,
                "stationID": self.action_id.station_id,
            },
            "denm": body,
        }

    def _traces_to_asn(self) -> List[List[dict]]:
        if not self.traces:
            # Traces is mandatory in the Location container with at
            # least one (possibly empty) path history.
            return [[]]
        out = []
        for trace in self.traces:
            path = []
            for d_lat, d_lon in trace:
                path.append({
                    "pathPosition": {
                        "deltaLatitude": _delta_wire(d_lat, 131071),
                        "deltaLongitude": _delta_wire(d_lon, 131071),
                        "deltaAltitude": 0,
                    },
                })
            out.append(path)
        return out

    def encode(self) -> bytes:
        """UPER-encode this DENM."""
        return DENM_PDU.to_bytes(self.to_asn())

    @staticmethod
    def from_asn(value: dict) -> "Denm":
        """Build a :class:`Denm` from a decoded :data:`DENM_PDU` dict."""
        body = value["denm"]
        management = body["management"]
        kwargs: dict = {
            "action_id": ActionId.from_asn(management["actionID"]),
            "detection_time": management["detectionTime"],
            "reference_time": management["referenceTime"],
            "event_position": ReferencePosition.from_asn(
                management["eventPosition"]),
            "station_type": management["stationType"],
            "termination": management.get("termination"),
            "relevance_distance": management.get("relevanceDistance"),
            "relevance_traffic_direction": management.get(
                "relevanceTrafficDirection"),
            "validity_duration": management.get("validityDuration"),
            "transmission_interval_ms": management.get(
                "transmissionInterval"),
        }
        situation = body.get("situation")
        if situation is not None:
            event = situation["eventType"]
            kwargs["event_type"] = EventType(
                event["causeCode"], event["subCauseCode"])
            kwargs["information_quality"] = situation["informationQuality"]
            linked = situation.get("linkedCause")
            if linked is not None:
                kwargs["linked_cause"] = EventType(
                    linked["causeCode"], linked["subCauseCode"])
        location = body.get("location")
        if location is not None:
            speed = location.get("eventSpeed")
            if speed is not None and speed["speedValue"] != SPEED_UNAVAILABLE:
                kwargs["event_speed"] = speed_from_wire(speed["speedValue"])
            heading = location.get("eventPositionHeading")
            if heading is not None:
                kwargs["event_heading"] = heading["headingValue"] / 10.0
            kwargs["road_type"] = location.get("roadType")
            traces = []
            for path in location["traces"]:
                trace = tuple(
                    (point["pathPosition"]["deltaLatitude"] / 1e7,
                     point["pathPosition"]["deltaLongitude"] / 1e7)
                    for point in path
                )
                traces.append(trace)
            # A single empty path history is the "no traces" placeholder.
            if traces != [()]:
                kwargs["traces"] = tuple(traces)
        alacarte = body.get("alacarte")
        if alacarte is not None:
            kwargs["lane_position"] = alacarte.get("lanePosition")
            kwargs["external_temperature"] = alacarte.get(
                "externalTemperature")
            kwargs["stationary_vehicle"] = "stationaryVehicle" in alacarte
        return Denm(**kwargs)

    @staticmethod
    def decode(data: bytes) -> "Denm":
        """Decode a UPER-encoded DENM.

        Memoised by payload (decoding is pure, :class:`Denm` is
        immutable): every in-range receiver of one broadcast DENM
        shares a single decode.
        """
        return _decode_denm_cached(data)

    @property
    def is_termination(self) -> bool:
        """Whether this DENM cancels or negates an earlier event."""
        return self.termination is not None

    def describe(self) -> str:
        """Human-readable summary of the advertised event."""
        if self.event_type is None:
            return "DENM without situation container"
        return self.event_type.describe()


@functools.lru_cache(maxsize=4096)
def _decode_denm_cached(data: bytes) -> Denm:
    return Denm.from_asn(DENM_PDU.from_bytes(data))


def _delta_wire(delta_degrees: float, bound: int) -> int:
    wire = round(delta_degrees * 1e7)
    return int(max(-bound, min(bound, wire)))
