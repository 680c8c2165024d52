"""Tests for CAM/DENM messages and the cause-code registry (Table I)."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asn1 import Asn1Error
from repro.messages import (
    ActionId,
    Cam,
    Denm,
    EventType,
    ItsPduHeader,
    MessageId,
    ReferencePosition,
    StationType,
    describe_event,
    from_its_timestamp,
    its_timestamp,
    lookup_cause,
)
from repro.messages import cause_codes
from repro.messages.cam import CAM_PDU, generation_delta_time
from repro.messages.common import ITS_EPOCH_UNIX
from repro.messages.denm import DENM_PDU


POS = ReferencePosition(latitude=41.178, longitude=-8.608, altitude=90.0)


# ---------------------------------------------------------------------------
# Cause codes (paper Table I)
# ---------------------------------------------------------------------------


class TestCauseCodes:
    def test_table1_codes_present(self):
        # The four rows reproduced in the paper's Table I.
        for code in (9, 10, 97, 99):
            assert lookup_cause(code) is not None

    def test_code_97_collision_risk(self):
        cause = lookup_cause(97)
        assert cause.name == "collisionRisk"
        assert cause.sub_cause(1).description == "Longitudinal collision risk"
        assert cause.sub_cause(2).description == "Crossing collision risk"
        assert cause.sub_cause(3).description == "Lateral collision risk"
        assert "vulnerable" in cause.sub_cause(4).description

    def test_code_99_dangerous_situation(self):
        cause = lookup_cause(99)
        assert cause.name == "dangerousSituation"
        assert "brake lights" in cause.sub_cause(1).description
        assert "AEB" in cause.sub_cause(5).description
        assert "Collision risk warning" in cause.sub_cause(7).description

    def test_code_94_stationary_vehicle_example_from_paper(self):
        # "a causeCode of 94 ... subCauseCode of 1 would indicate a human
        # problem and 2 a vehicle breakdown."
        cause = lookup_cause(94)
        assert cause.sub_cause(1).description == "Human problem"
        assert cause.sub_cause(2).description == "Vehicle breakdown"

    def test_code_10_obstacle_on_road(self):
        cause = lookup_cause(10)
        assert "Obstacle" in cause.description
        # Sub causes 1..7 per Table I.
        for sub in range(1, 8):
            assert cause.sub_cause(sub) is not None
        assert cause.sub_cause(8) is None

    def test_sub_cause_zero_always_unavailable(self):
        for cause in cause_codes.CAUSE_CODE_REGISTRY.values():
            assert cause.sub_cause(0).description == "Unavailable"

    def test_describe_event(self):
        assert describe_event(97, 2) == "Collision Risk: Crossing collision risk"
        assert "Unknown cause code" in describe_event(250)
        assert "unlisted" in describe_event(97, 99)

    def test_registry_keys_match_codes(self):
        for code, cause in cause_codes.CAUSE_CODE_REGISTRY.items():
            assert cause.code == code


# ---------------------------------------------------------------------------
# Timestamps and unit conversions
# ---------------------------------------------------------------------------


class TestTimestamps:
    def test_epoch_is_zero(self):
        assert its_timestamp(ITS_EPOCH_UNIX) == 0

    def test_round_trip(self):
        t = 1_700_000_000.123
        assert abs(from_its_timestamp(its_timestamp(t)) - t) < 1e-3

    def test_pre_epoch_rejected(self):
        with pytest.raises(ValueError):
            its_timestamp(ITS_EPOCH_UNIX - 1.0)

    def test_generation_delta_time_wraps(self):
        assert generation_delta_time(65536) == 0
        assert generation_delta_time(65535) == 65535
        assert generation_delta_time(70000) == 70000 - 65536

    @given(st.integers(0, 4398046511103))
    def test_generation_delta_time_in_range(self, ts):
        assert 0 <= generation_delta_time(ts) <= 65535


# ---------------------------------------------------------------------------
# ITS PDU header / ReferencePosition
# ---------------------------------------------------------------------------


class TestCommon:
    def test_header_round_trip(self):
        header = ItsPduHeader(2, MessageId.DENM, 1234)
        assert ItsPduHeader.from_asn(header.to_asn()) == header

    def test_reference_position_round_trip(self):
        again = ReferencePosition.from_asn(POS.to_asn())
        assert abs(again.latitude - POS.latitude) < 1e-6
        assert abs(again.longitude - POS.longitude) < 1e-6
        assert abs(again.altitude - POS.altitude) < 0.01

    @given(st.floats(-90, 90), st.floats(-180, 180))
    def test_position_round_trip_property(self, lat, lon):
        pos = ReferencePosition(lat, lon)
        again = ReferencePosition.from_asn(pos.to_asn())
        assert abs(again.latitude - lat) < 1e-6
        assert abs(again.longitude - lon) < 1e-6


# ---------------------------------------------------------------------------
# CAM
# ---------------------------------------------------------------------------


def make_cam(**overrides):
    base = dict(
        station_id=7,
        station_type=StationType.PASSENGER_CAR,
        generation_delta_time=1234,
        position=POS,
        heading=45.0,
        speed=1.5,
        vehicle_length=0.53,
        vehicle_width=0.30,
        longitudinal_acceleration=-0.2,
        curvature=0.01,
        yaw_rate=3.0,
    )
    base.update(overrides)
    return Cam(**base)


class TestCam:
    def test_encode_decode_round_trip(self):
        cam = make_cam()
        again = Cam.decode(cam.encode())
        assert again.station_id == 7
        assert again.station_type == StationType.PASSENGER_CAR
        assert again.generation_delta_time == 1234
        assert abs(again.speed - 1.5) < 0.01
        assert abs(again.heading - 45.0) < 0.1
        assert abs(again.vehicle_length - 0.53) < 0.05
        assert abs(again.curvature - 0.01) < 1e-4
        assert abs(again.yaw_rate - 3.0) < 0.01

    def test_header_fields(self):
        asn = make_cam().to_asn()
        assert asn["header"]["messageID"] == MessageId.CAM
        assert asn["header"]["stationID"] == 7

    def test_rsu_cam_round_trip(self):
        cam = make_cam(is_rsu=True,
                       station_type=StationType.ROAD_SIDE_UNIT)
        again = Cam.decode(cam.encode())
        assert again.is_rsu
        assert again.station_type == StationType.ROAD_SIDE_UNIT

    def test_unavailable_curvature(self):
        cam = make_cam(curvature=None)
        assert Cam.decode(cam.encode()).curvature is None

    def test_wire_size_is_compact(self):
        # A CAM is a few tens of bytes on the wire, not hundreds.
        assert len(make_cam().encode()) < 60

    def test_schema_rejects_garbage(self):
        with pytest.raises(Asn1Error):
            CAM_PDU.to_bytes({"header": {}})

    @given(st.floats(0, 100), st.floats(0, 360))
    def test_speed_heading_quantisation(self, speed, heading):
        cam = make_cam(speed=speed, heading=heading)
        again = Cam.decode(cam.encode())
        # 0.01 m/s and 0.1 degree wire resolution, and speed saturates
        # at the wire maximum of 163.82 m/s.
        assert abs(again.speed - min(speed, 163.82)) <= 0.005 + 1e-9
        error = abs((again.heading - heading + 180) % 360 - 180)
        assert error <= 0.05 + 1e-9


# ---------------------------------------------------------------------------
# DENM
# ---------------------------------------------------------------------------


class TestDenm:
    def test_collision_risk_round_trip(self):
        denm = Denm.collision_risk(
            ActionId(99, 5), detection_time=700000000000,
            event_position=POS, station_type=StationType.ROAD_SIDE_UNIT,
            event_speed=1.2, event_heading=270.0)
        again = Denm.decode(denm.encode())
        assert again.action_id == ActionId(99, 5)
        assert again.event_type == EventType(97, 2)
        assert again.detection_time == 700000000000
        assert abs(again.event_speed - 1.2) < 0.01
        assert abs(again.event_heading - 270.0) < 0.1
        assert again.relevance_distance == "lessThan50m"

    def test_mandatory_only_denm(self):
        # The paper's testbed used DENMs with only Header + Management.
        denm = Denm(
            action_id=ActionId(1, 0),
            detection_time=1000,
            reference_time=1000,
            event_position=POS,
            station_type=StationType.ROAD_SIDE_UNIT,
        )
        again = Denm.decode(denm.encode())
        assert again.event_type is None
        assert again.event_speed is None
        assert again.traces == ()

    def test_mandatory_only_denm_is_small(self):
        denm = Denm(
            action_id=ActionId(1, 0), detection_time=1000,
            reference_time=1000, event_position=POS,
            station_type=StationType.ROAD_SIDE_UNIT,
            validity_duration=None)
        assert len(denm.encode()) <= 45

    def test_stationary_vehicle_warning(self):
        denm = Denm.stationary_vehicle_warning(
            ActionId(2, 1), detection_time=5000, event_position=POS,
            station_type=StationType.PASSENGER_CAR)
        again = Denm.decode(denm.encode())
        assert again.event_type.cause_code == 94
        assert again.stationary_vehicle
        assert again.describe() == "Stationary vehicle: Vehicle breakdown"

    def test_termination_round_trip(self):
        denm = Denm.collision_risk(
            ActionId(99, 5), 1000, POS, StationType.ROAD_SIDE_UNIT)
        cancel = denm.terminate(reference_time=2000)
        assert not denm.is_termination
        assert cancel.is_termination
        again = Denm.decode(cancel.encode())
        assert again.termination == "isCancellation"
        assert again.reference_time == 2000

    def test_traces_round_trip(self):
        denm = dataclasses.replace(
            Denm.collision_risk(ActionId(9, 9), 1000, POS,
                                StationType.ROAD_SIDE_UNIT),
            traces=(((1e-5, 2e-5), (-1e-5, 0.0)),),
        )
        again = Denm.decode(denm.encode())
        assert len(again.traces) == 1
        assert len(again.traces[0]) == 2
        assert abs(again.traces[0][0][0] - 1e-5) < 1e-7

    def _with_traces(self, traces):
        return dataclasses.replace(
            Denm.collision_risk(ActionId(9, 9), 1000, POS,
                                StationType.ROAD_SIDE_UNIT),
            traces=traces)

    def test_traces_at_size_bounds_round_trip(self):
        trace = tuple((1e-6 * i, -1e-6 * i) for i in range(40))
        again = Denm.decode(self._with_traces((trace,) * 7).encode())
        assert len(again.traces) == 7
        assert all(len(t) == 40 for t in again.traces)

    def test_traces_over_size_bound_raise(self):
        # Traces SIZE(1..7): an eighth trace is an encoding error.
        point = ((1e-5, 2e-5),)
        with pytest.raises(Asn1Error):
            self._with_traces((point,) * 8).encode()

    def test_trace_over_path_size_bound_raises(self):
        # PathHistory SIZE(0..40): a 41-point trace is an error.
        trace = tuple((1e-6 * i, 0.0) for i in range(41))
        with pytest.raises(Asn1Error):
            self._with_traces((trace,)).encode()

    def test_alacarte_round_trip(self):
        denm = dataclasses.replace(
            Denm.collision_risk(ActionId(9, 9), 1000, POS,
                                StationType.ROAD_SIDE_UNIT),
            lane_position=2, external_temperature=21)
        again = Denm.decode(denm.encode())
        assert again.lane_position == 2
        assert again.external_temperature == 21

    def test_header_is_denm(self):
        asn = Denm.collision_risk(
            ActionId(3, 1), 1000, POS, StationType.ROAD_SIDE_UNIT).to_asn()
        assert asn["header"]["messageID"] == MessageId.DENM
        assert asn["header"]["stationID"] == 3

    def test_schema_rejects_bad_sequence_number(self):
        denm = Denm.collision_risk(
            ActionId(3, 70000), 1000, POS, StationType.ROAD_SIDE_UNIT)
        with pytest.raises(Asn1Error):
            denm.encode()

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_any_cause_code_round_trips(self, cause, sub):
        denm = dataclasses.replace(
            Denm.collision_risk(ActionId(1, 1), 1000, POS,
                                StationType.ROAD_SIDE_UNIT),
            event_type=EventType(cause, sub))
        again = Denm.decode(denm.encode())
        assert again.event_type == EventType(cause, sub)

    def test_denm_schema_validates(self):
        value = Denm.collision_risk(
            ActionId(1, 1), 1000, POS, StationType.ROAD_SIDE_UNIT).to_asn()
        DENM_PDU.validate(value)


class TestCamLowFrequencyContainer:
    def test_round_trip_with_path_history(self):
        cam = make_cam(
            exterior_lights=(1, 0, 0, 0, 1, 0, 0, 0),
            path_history=((1e-5, -2e-5), (2e-5, -4e-5)),
            vehicle_role="emergency",
        )
        again = Cam.decode(cam.encode())
        assert again.vehicle_role == "emergency"
        assert again.exterior_lights == (1, 0, 0, 0, 1, 0, 0, 0)
        assert len(again.path_history) == 2
        assert abs(again.path_history[0][0] - 1e-5) < 1e-7
        assert abs(again.path_history[1][1] - (-4e-5)) < 1e-7

    def test_lf_absent_by_default(self):
        again = Cam.decode(make_cam().encode())
        assert again.exterior_lights is None
        assert again.path_history == ()

    def test_lf_grows_wire_size(self):
        plain = make_cam().encode()
        with_lf = make_cam(
            exterior_lights=(0,) * 8,
            path_history=tuple((1e-5 * i, 1e-5 * i) for i in range(10)),
        ).encode()
        assert len(with_lf) > len(plain) + 30

    def test_rsu_cam_never_carries_lf(self):
        cam = make_cam(is_rsu=True, path_history=((1e-5, 1e-5),))
        again = Cam.decode(cam.encode())
        assert again.path_history == ()

    def test_path_history_at_size_bound_round_trips(self):
        cam = make_cam(
            exterior_lights=(0,) * 8,
            path_history=tuple((1e-6 * i, 0.0) for i in range(40)),
        )
        again = Cam.decode(cam.encode())
        assert len(again.path_history) == 40
        assert abs(again.path_history[39][0] - 39e-6) < 1e-7

    def test_path_history_over_size_bound_raises(self):
        # SIZE(0..40): one point over is an encoding error, never a
        # silently truncated (lossy) round trip.
        cam = make_cam(
            exterior_lights=(0,) * 8,
            path_history=tuple((1e-6 * i, 0.0) for i in range(41)),
        )
        with pytest.raises(Asn1Error):
            cam.encode()
