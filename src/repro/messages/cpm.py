"""Collective Perception Message (TS 103 324, simplified).

The paper motivates V2X by cooperative perception: "expand the
situational awareness of the vehicle".  DENMs warn about *events*;
CPMs go further and share the sensor picture itself -- each perceived
object with position, velocity and classification -- so receivers see
road users their own sensors cannot.  The blind-corner extension
compares this proactive channel against the reactive DENM.

The schema is a hand-reduced subset of the CPM: station data container
(originating position) plus the perceived-object container.  Offsets
are metres relative to the originating station, as in the standard's
xDistance/yDistance (here at 0.01 m resolution).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.asn1 import Enumerated, Field, Integer, Sequence, SequenceOf
from repro.messages.common import (
    ITS_PDU_HEADER,
    REFERENCE_POSITION,
    ReferencePosition,
    StationTypeType,
)

#: CPM uses message id 14 in recent releases; the exact number only
#: needs to be distinct within this stack.
CPM_MESSAGE_ID = 14

ObjectIdType = Integer(0, 65535, "Identifier")
DistanceValueType = Integer(-132768, 132767, "DistanceValue")  # 0.01 m
SpeedValueCpmType = Integer(-16383, 16383, "SpeedValueExtended")  # 0.01 m/s
ObjectConfidenceType = Integer(0, 101, "ObjectConfidence")
TimeOfMeasurementType = Integer(-1500, 1500, "TimeOfMeasurement")  # ms

ObjectClassType = Enumerated(
    [
        "unknown", "pedestrian", "cyclist", "moped", "motorcycle",
        "passengerCar", "bus", "lightTruck", "heavyTruck", "trailer",
        "specialVehicle", "tram", "roadSideUnit", "animal", "other",
    ],
    "ObjectClass",
)

PERCEIVED_OBJECT = Sequence("PerceivedObject", [
    Field("objectID", ObjectIdType),
    Field("timeOfMeasurement", TimeOfMeasurementType),
    Field("xDistance", DistanceValueType),
    Field("yDistance", DistanceValueType),
    Field("xSpeed", SpeedValueCpmType),
    Field("ySpeed", SpeedValueCpmType),
    Field("objectConfidence", ObjectConfidenceType),
    Field("classification", ObjectClassType, optional=True),
], extensible=True)

STATION_DATA_CONTAINER = Sequence("OriginatingStationData", [
    Field("stationType", StationTypeType),
    Field("referencePosition", REFERENCE_POSITION),
], extensible=True)

CPM_BODY = Sequence("CollectivePerceptionMessage", [
    Field("generationDeltaTime", Integer(0, 65535,
                                         "GenerationDeltaTime")),
    Field("stationData", STATION_DATA_CONTAINER),
    Field("perceivedObjects", SequenceOf(PERCEIVED_OBJECT, 0, 128,
                                         "PerceivedObjectContainer")),
])

#: Complete CPM PDU.
CPM_PDU = Sequence("CPM", [
    Field("header", ITS_PDU_HEADER),
    Field("cpm", CPM_BODY),
])


@dataclasses.dataclass(frozen=True)
class PerceivedObject:
    """One shared perception, relative to the originating station.

    Offsets/speeds are in the station's local ENU frame: ``x`` east,
    ``y`` north, metres and metres/second.
    """

    object_id: int
    x_offset: float
    y_offset: float
    x_speed: float = 0.0
    y_speed: float = 0.0
    confidence: float = 0.5          # 0..1
    classification: str = "unknown"
    #: Measurement age relative to CPM generation (s; negative = older).
    measurement_delta: float = 0.0

    @property
    def speed(self) -> float:
        """Ground speed (m/s)."""
        return (self.x_speed ** 2 + self.y_speed ** 2) ** 0.5


@dataclasses.dataclass(frozen=True)
class Cpm:
    """An SI-unit Collective Perception Message."""

    station_id: int
    station_type: int
    generation_delta_time: int
    reference_position: ReferencePosition
    perceived_objects: Tuple[PerceivedObject, ...] = ()

    def to_asn(self) -> dict:
        """Wire-form dict for :data:`CPM_PDU`."""
        return {
            "header": {
                "protocolVersion": 2,
                "messageID": CPM_MESSAGE_ID,
                "stationID": self.station_id,
            },
            "cpm": {
                "generationDeltaTime": self.generation_delta_time,
                "stationData": {
                    "stationType": self.station_type,
                    "referencePosition":
                        self.reference_position.to_asn(),
                },
                "perceivedObjects": [
                    {
                        "objectID": obj.object_id,
                        "timeOfMeasurement": _millis(
                            obj.measurement_delta, 1500),
                        "xDistance": _centi(obj.x_offset, 132767),
                        "yDistance": _centi(obj.y_offset, 132767),
                        "xSpeed": _centi(obj.x_speed, 16383),
                        "ySpeed": _centi(obj.y_speed, 16383),
                        "objectConfidence": int(round(
                            min(1.0, max(0.0, obj.confidence)) * 100)),
                        "classification": obj.classification,
                    }
                    for obj in self.perceived_objects
                ],
            },
        }

    def encode(self) -> bytes:
        """UPER-encode this CPM."""
        return CPM_PDU.to_bytes(self.to_asn())

    @staticmethod
    def from_asn(value: dict) -> "Cpm":
        """Build from a decoded :data:`CPM_PDU` dict."""
        body = value["cpm"]
        station = body["stationData"]
        objects = tuple(
            PerceivedObject(
                object_id=obj["objectID"],
                x_offset=obj["xDistance"] / 100.0,
                y_offset=obj["yDistance"] / 100.0,
                x_speed=obj["xSpeed"] / 100.0,
                y_speed=obj["ySpeed"] / 100.0,
                confidence=obj["objectConfidence"] / 100.0,
                classification=obj.get("classification", "unknown"),
                measurement_delta=obj["timeOfMeasurement"] / 1000.0,
            )
            for obj in body["perceivedObjects"]
        )
        return Cpm(
            station_id=value["header"]["stationID"],
            station_type=station["stationType"],
            generation_delta_time=body["generationDeltaTime"],
            reference_position=ReferencePosition.from_asn(
                station["referencePosition"]),
            perceived_objects=objects,
        )

    @staticmethod
    def decode(data: bytes) -> "Cpm":
        """Decode a UPER-encoded CPM."""
        return Cpm.from_asn(CPM_PDU.from_bytes(data))


def _centi(value: float, bound: int) -> int:
    wire = round(value * 100.0)
    return int(max(-bound, min(bound, wire)))


def _millis(value: float, bound: int) -> int:
    wire = round(value * 1000.0)
    return int(max(-bound, min(bound, wire)))
