"""Cooperative Awareness Message (EN 302 637-2).

The wire schema (:data:`CAM_PDU`) covers the basic container and the
vehicle / RSU high-frequency containers; :class:`Cam` is the SI-unit
dataclass used by application code.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Tuple

from repro.asn1 import (
    BitString,
    Choice,
    Enumerated,
    Field,
    Integer,
    Sequence,
    SequenceOf,
)
from repro.messages.common import (
    HEADING,
    PATH_POINT,
    HEADING_UNAVAILABLE,
    ITS_PDU_HEADER,
    MessageId,
    REFERENCE_POSITION,
    ReferencePosition,
    SPEED,
    StationTypeType,
    heading_from_wire,
    heading_to_wire,
    speed_from_wire,
    speed_to_wire,
)

GenerationDeltaTimeType = Integer(0, 65535, "GenerationDeltaTime")

BASIC_CONTAINER = Sequence("BasicContainer", [
    Field("stationType", StationTypeType),
    Field("referencePosition", REFERENCE_POSITION),
])

DriveDirectionType = Enumerated(
    ["forward", "backward", "unavailable"], "DriveDirection")
VehicleLengthValueType = Integer(1, 1023, "VehicleLengthValue")
VehicleLengthConfidenceType = Enumerated(
    [
        "noTrailerPresent", "trailerPresentWithKnownLength",
        "trailerPresentWithUnknownLength", "trailerPresenceIsUnknown",
        "unavailable",
    ],
    "VehicleLengthConfidenceIndication",
)
VehicleWidthType = Integer(1, 62, "VehicleWidth")
LongitudinalAccelerationValueType = Integer(
    -160, 161, "LongitudinalAccelerationValue")
AccelerationConfidenceType = Integer(0, 102, "AccelerationConfidence")
CurvatureValueType = Integer(-1023, 1023, "CurvatureValue")
CurvatureConfidenceType = Enumerated(
    [
        "onePerMeter-0-00002", "onePerMeter-0-0001", "onePerMeter-0-0005",
        "onePerMeter-0-002", "onePerMeter-0-01", "onePerMeter-0-1",
        "outOfRange", "unavailable",
    ],
    "CurvatureConfidence",
)
CurvatureCalculationModeType = Enumerated(
    ["yawRateUsed", "yawRateNotUsed", "unavailable"],
    "CurvatureCalculationMode",
)
YawRateValueType = Integer(-32766, 32767, "YawRateValue")
YawRateConfidenceType = Enumerated(
    [
        "degSec-000-01", "degSec-000-05", "degSec-000-10", "degSec-001-00",
        "degSec-005-00", "degSec-010-00", "degSec-100-00", "outOfRange",
        "unavailable",
    ],
    "YawRateConfidence",
)

VEHICLE_LENGTH = Sequence("VehicleLength", [
    Field("vehicleLengthValue", VehicleLengthValueType),
    Field("vehicleLengthConfidenceIndication", VehicleLengthConfidenceType),
])

LONGITUDINAL_ACCELERATION = Sequence("LongitudinalAcceleration", [
    Field("longitudinalAccelerationValue", LongitudinalAccelerationValueType),
    Field("longitudinalAccelerationConfidence", AccelerationConfidenceType),
])

CURVATURE = Sequence("Curvature", [
    Field("curvatureValue", CurvatureValueType),
    Field("curvatureConfidence", CurvatureConfidenceType),
])

YAW_RATE = Sequence("YawRate", [
    Field("yawRateValue", YawRateValueType),
    Field("yawRateConfidence", YawRateConfidenceType),
])

BASIC_VEHICLE_CONTAINER_HF = Sequence(
    "BasicVehicleContainerHighFrequency",
    [
        Field("heading", HEADING),
        Field("speed", SPEED),
        Field("driveDirection", DriveDirectionType),
        Field("vehicleLength", VEHICLE_LENGTH),
        Field("vehicleWidth", VehicleWidthType),
        Field("longitudinalAcceleration", LONGITUDINAL_ACCELERATION),
        Field("curvature", CURVATURE),
        Field("curvatureCalculationMode", CurvatureCalculationModeType),
        Field("yawRate", YAW_RATE),
    ],
)

RSU_CONTAINER_HF = Sequence("RSUContainerHighFrequency", [], extensible=True)

HIGH_FREQUENCY_CONTAINER = Choice(
    "HighFrequencyContainer",
    [
        ("basicVehicleContainerHighFrequency", BASIC_VEHICLE_CONTAINER_HF),
        ("rsuContainerHighFrequency", RSU_CONTAINER_HF),
    ],
    extensible=True,
)

VehicleRoleType = Enumerated(
    [
        "default", "publicTransport", "specialTransport",
        "dangerousGoods", "roadWork", "rescue", "emergency", "safetyCar",
        "agriculture", "commercial", "military", "roadOperator", "taxi",
        "reserved1", "reserved2", "reserved3",
    ],
    "VehicleRole",
)

#: DE_ExteriorLights: 8-bit map (lowBeam, highBeam, leftTurn,
#: rightTurn, daytime, reverse, fog, parking).
ExteriorLightsType = BitString(8, name="ExteriorLights")

PATH_HISTORY_CAM = SequenceOf(PATH_POINT, 0, 40, "PathHistory")

BASIC_VEHICLE_CONTAINER_LF = Sequence(
    "BasicVehicleContainerLowFrequency",
    [
        Field("vehicleRole", VehicleRoleType),
        Field("exteriorLights", ExteriorLightsType),
        Field("pathHistory", PATH_HISTORY_CAM),
    ],
)

LOW_FREQUENCY_CONTAINER = Choice(
    "LowFrequencyContainer",
    [("basicVehicleContainerLowFrequency", BASIC_VEHICLE_CONTAINER_LF)],
    extensible=True,
)

CAM_PARAMETERS = Sequence("CamParameters", [
    Field("basicContainer", BASIC_CONTAINER),
    Field("highFrequencyContainer", HIGH_FREQUENCY_CONTAINER),
    Field("lowFrequencyContainer", LOW_FREQUENCY_CONTAINER,
          optional=True),
], extensible=True)

COOP_AWARENESS = Sequence("CoopAwareness", [
    Field("generationDeltaTime", GenerationDeltaTimeType),
    Field("camParameters", CAM_PARAMETERS),
])

#: Complete CAM PDU schema (header + CoopAwareness).
CAM_PDU = Sequence("CAM", [
    Field("header", ITS_PDU_HEADER),
    Field("cam", COOP_AWARENESS),
])

#: CAM protocol version carried in the header.
CAM_PROTOCOL_VERSION = 2

#: Modulo for generationDeltaTime (EN 302 637-2: TimestampIts mod 65536).
GENERATION_DELTA_TIME_MOD = 65536


@dataclasses.dataclass(frozen=True)
class Cam:
    """An SI-unit Cooperative Awareness Message.

    Attributes mirror the fields a vehicle station fills from its own
    state vector; :meth:`encode` / :meth:`decode` translate to/from the
    UPER wire form.
    """

    station_id: int
    station_type: int
    generation_delta_time: int
    position: ReferencePosition
    heading: float = 0.0                 # degrees clockwise from north
    speed: float = 0.0                   # m/s
    drive_direction: str = "forward"
    vehicle_length: float = 0.53         # metres (the 1/10-scale car)
    vehicle_width: float = 0.30          # metres
    longitudinal_acceleration: float = 0.0  # m/s^2
    curvature: Optional[float] = None    # 1/m, None when unavailable
    yaw_rate: float = 0.0                # deg/s
    is_rsu: bool = False
    # Low-frequency container (included when path_history or
    # exterior_lights is set).
    vehicle_role: str = "default"
    exterior_lights: Optional[Tuple[int, ...]] = None
    path_history: Tuple[Tuple[float, float], ...] = ()

    def to_asn(self) -> dict:
        """Build the wire-form dict for :data:`CAM_PDU`."""
        basic = {
            "stationType": self.station_type,
            "referencePosition": self.position.to_asn(),
        }
        if self.is_rsu:
            high_frequency = ("rsuContainerHighFrequency", {})
        else:
            curvature_value = (
                1023 if self.curvature is None
                else max(-1022, min(1022, round(self.curvature * 10000.0)))
            )
            high_frequency = ("basicVehicleContainerHighFrequency", {
                "heading": {
                    "headingValue": heading_to_wire(self.heading),
                    "headingConfidence": 10,
                },
                "speed": {
                    "speedValue": speed_to_wire(self.speed),
                    "speedConfidence": 5,
                },
                "driveDirection": self.drive_direction,
                "vehicleLength": {
                    "vehicleLengthValue": _decimetres(self.vehicle_length),
                    "vehicleLengthConfidenceIndication": "noTrailerPresent",
                },
                "vehicleWidth": _decimetres(self.vehicle_width, hi=62),
                "longitudinalAcceleration": {
                    "longitudinalAccelerationValue": _accel_wire(
                        self.longitudinal_acceleration),
                    "longitudinalAccelerationConfidence": 2,
                },
                "curvature": {
                    "curvatureValue": curvature_value,
                    "curvatureConfidence": (
                        "unavailable" if self.curvature is None
                        else "onePerMeter-0-002"
                    ),
                },
                "curvatureCalculationMode": "yawRateUsed",
                "yawRate": {
                    "yawRateValue": _yaw_rate_wire(self.yaw_rate),
                    "yawRateConfidence": "degSec-001-00",
                },
            })
        parameters = {
            "basicContainer": basic,
            "highFrequencyContainer": high_frequency,
        }
        if not self.is_rsu and (self.path_history
                                or self.exterior_lights is not None):
            lights = self.exterior_lights or (0,) * 8
            parameters["lowFrequencyContainer"] = (
                "basicVehicleContainerLowFrequency", {
                    "vehicleRole": self.vehicle_role,
                    "exteriorLights": tuple(lights),
                    "pathHistory": [
                        {
                            "pathPosition": {
                                "deltaLatitude": _delta_wire(d_lat),
                                "deltaLongitude": _delta_wire(d_lon),
                                "deltaAltitude": 0,
                            },
                        }
                        for d_lat, d_lon in self.path_history
                    ],
                })
        return {
            "header": {
                "protocolVersion": CAM_PROTOCOL_VERSION,
                "messageID": MessageId.CAM,
                "stationID": self.station_id,
            },
            "cam": {
                "generationDeltaTime": self.generation_delta_time,
                "camParameters": parameters,
            },
        }

    def encode(self) -> bytes:
        """UPER-encode this CAM."""
        return CAM_PDU.to_bytes(self.to_asn())

    @staticmethod
    def from_asn(value: dict) -> "Cam":
        """Build a :class:`Cam` from a decoded :data:`CAM_PDU` dict."""
        header = value["header"]
        coop = value["cam"]
        params = coop["camParameters"]
        basic = params["basicContainer"]
        alt, hf = params["highFrequencyContainer"]
        position = ReferencePosition.from_asn(basic["referencePosition"])
        if alt == "rsuContainerHighFrequency":
            return Cam(
                station_id=header["stationID"],
                station_type=basic["stationType"],
                generation_delta_time=coop["generationDeltaTime"],
                position=position,
                is_rsu=True,
            )
        heading_wire = hf["heading"]["headingValue"]
        curvature_wire = hf["curvature"]["curvatureValue"]
        vehicle_role = "default"
        exterior_lights = None
        path_history: Tuple[Tuple[float, float], ...] = ()
        low_frequency = params.get("lowFrequencyContainer")
        if low_frequency is not None:
            _alt, lf = low_frequency
            vehicle_role = lf["vehicleRole"]
            exterior_lights = tuple(lf["exteriorLights"])
            path_history = tuple(
                (point["pathPosition"]["deltaLatitude"] / 1e7,
                 point["pathPosition"]["deltaLongitude"] / 1e7)
                for point in lf["pathHistory"]
            )
        return Cam(
            station_id=header["stationID"],
            station_type=basic["stationType"],
            generation_delta_time=coop["generationDeltaTime"],
            position=position,
            heading=(0.0 if heading_wire == HEADING_UNAVAILABLE
                     else heading_from_wire(heading_wire)),
            speed=speed_from_wire(hf["speed"]["speedValue"]),
            drive_direction=hf["driveDirection"],
            vehicle_length=hf["vehicleLength"]["vehicleLengthValue"] / 10.0,
            vehicle_width=hf["vehicleWidth"] / 10.0,
            longitudinal_acceleration=(
                hf["longitudinalAcceleration"]
                ["longitudinalAccelerationValue"] / 10.0),
            curvature=(None if curvature_wire == 1023
                       else curvature_wire / 10000.0),
            yaw_rate=hf["yawRate"]["yawRateValue"] / 100.0,
            vehicle_role=vehicle_role,
            exterior_lights=exterior_lights,
            path_history=path_history,
        )

    @staticmethod
    def decode(data: bytes) -> "Cam":
        """Decode a UPER-encoded CAM.

        Decoding is pure and :class:`Cam` is immutable, so identical
        payloads are memoised: one broadcast CAM is decoded by every
        receiver in range, and at fleet scale the memo turns N
        per-receiver decodes of the same frame into one.
        """
        return _decode_cam_cached(data)


@functools.lru_cache(maxsize=4096)
def _decode_cam_cached(data: bytes) -> Cam:
    return Cam.from_asn(CAM_PDU.from_bytes(data))


def generation_delta_time(its_timestamp_ms: int) -> int:
    """generationDeltaTime for a TimestampIts (EN 302 637-2 B.3)."""
    return its_timestamp_ms % GENERATION_DELTA_TIME_MOD


def _decimetres(metres: float, hi: int = 1023) -> int:
    return int(max(1, min(hi, round(metres * 10.0))))


def _accel_wire(mps2: float) -> int:
    return int(max(-160, min(160, round(mps2 * 10.0))))


def _yaw_rate_wire(deg_per_s: float) -> int:
    return int(max(-32766, min(32766, round(deg_per_s * 100.0))))


def _delta_wire(delta_degrees: float) -> int:
    wire = round(delta_degrees * 1e7)
    return int(max(-131071, min(131072, wire)))
