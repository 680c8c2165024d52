"""Tests for the Collective Perception Message and CP service."""

import pytest

from repro.asn1 import Asn1Error
from repro.facilities import ItsStation, ObjectKind
from repro.facilities.cp_service import CpConfig, CpService
from repro.geonet import LocalFrame
from repro.messages import ReferencePosition, StationType
from repro.messages.cpm import Cpm, PerceivedObject
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import NtpModel, RandomStreams, Simulator

FRAME = LocalFrame()


def make_cpm(objects=None):
    if objects is None:
        objects = (
            PerceivedObject(1, x_offset=3.5, y_offset=-1.2,
                            x_speed=0.0, y_speed=-1.1,
                            confidence=0.8,
                            classification="passengerCar"),
            PerceivedObject(2, x_offset=-0.5, y_offset=4.0,
                            classification="pedestrian"),
        )
    return Cpm(
        station_id=900,
        station_type=StationType.ROAD_SIDE_UNIT,
        generation_delta_time=1234,
        reference_position=ReferencePosition(41.1787, -8.6078),
        perceived_objects=tuple(objects),
    )


class TestCpmCodec:
    def test_round_trip(self):
        cpm = make_cpm()
        again = Cpm.decode(cpm.encode())
        assert again.station_id == 900
        assert len(again.perceived_objects) == 2
        first = again.perceived_objects[0]
        assert first.x_offset == pytest.approx(3.5, abs=0.01)
        assert first.y_speed == pytest.approx(-1.1, abs=0.01)
        assert first.confidence == pytest.approx(0.8, abs=0.01)
        assert first.classification == "passengerCar"
        assert again.perceived_objects[1].classification == "pedestrian"

    def test_empty_object_list(self):
        cpm = make_cpm(objects=())
        again = Cpm.decode(cpm.encode())
        assert again.perceived_objects == ()

    def test_object_list_at_size_bound_round_trips(self):
        cpm = make_cpm(objects=tuple(
            PerceivedObject(i, float(i % 50), 0.0) for i in range(128)))
        again = Cpm.decode(cpm.encode())
        assert len(again.perceived_objects) == 128
        assert again.perceived_objects[127].object_id == 127

    def test_object_list_over_size_bound_raises(self):
        # SIZE(0..128): a 129th object is an encoding error, never a
        # silently dropped one.
        cpm = make_cpm(objects=tuple(
            PerceivedObject(i, 1.0, 0.0) for i in range(129)))
        with pytest.raises(Asn1Error):
            cpm.encode()

    def test_wire_size_scales_with_objects(self):
        small = make_cpm(objects=(PerceivedObject(1, 1.0, 1.0),))
        large = make_cpm(objects=tuple(
            PerceivedObject(i, float(i), 0.0) for i in range(20)))
        assert len(large.encode()) > len(small.encode()) + 100

    def test_object_speed_property(self):
        obj = PerceivedObject(1, 0.0, 0.0, x_speed=3.0, y_speed=4.0)
        assert obj.speed == pytest.approx(5.0)

    def test_offset_clamping(self):
        cpm = make_cpm(objects=(
            PerceivedObject(1, x_offset=5000.0, y_offset=0.0),))
        again = Cpm.decode(cpm.encode())
        assert again.perceived_objects[0].x_offset == pytest.approx(
            1327.67)


def build_cp_pair(provider, rate=5.0, seed=3):
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = WirelessMedium(sim, streams.get("medium"),
                            LinkBudget(path_loss=LogDistancePathLoss()))
    rsu = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: FRAME.to_geo(0.0, 0.0), is_rsu=True,
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    vehicle = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: FRAME.to_geo(-15.0, 0.0),
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    sender = CpService(
        sim, rsu.router, rsu.ldm, 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: FRAME.to_geo(0.0, 0.0),
        its_time=rsu.its_time, local_frame=FRAME,
        provider=provider, config=CpConfig(rate=rate))
    receiver = CpService(
        sim, vehicle.router, vehicle.ldm, 101,
        StationType.PASSENGER_CAR,
        position=lambda: FRAME.to_geo(-15.0, 0.0),
        its_time=vehicle.its_time, local_frame=FRAME)
    return sim, sender, receiver, vehicle


class TestCpService:
    def test_objects_reach_receiver_ldm(self):
        def provider():
            return [PerceivedObject(
                7, x_offset=2.0, y_offset=3.0, y_speed=-1.0)]

        sim, sender, receiver, vehicle = build_cp_pair(provider)
        sim.run_until(1.0)
        assert sender.cpms_sent >= 4
        assert receiver.cpms_received >= 4
        entry = vehicle.ldm.get("cpm:900:7")
        assert entry is not None
        assert entry.kind == ObjectKind.ROAD_USER
        assert entry.source == "cpm"
        # Georeferenced: RSU at origin + offset (2, 3).
        x, y = FRAME.to_local(entry.position)
        assert x == pytest.approx(2.0, abs=0.01)
        assert y == pytest.approx(3.0, abs=0.01)
        assert entry.speed == pytest.approx(1.0, abs=0.01)

    def test_empty_provider_suppressed(self):
        sim, sender, receiver, vehicle = build_cp_pair(lambda: [])
        sim.run_until(2.0)
        assert sender.cpms_sent == 0
        assert receiver.cpms_received == 0

    def test_rate_respected(self):
        def provider():
            return [PerceivedObject(1, 1.0, 1.0)]

        sim, sender, receiver, vehicle = build_cp_pair(provider,
                                                       rate=2.0)
        sim.run_until(3.05)
        assert 5 <= sender.cpms_sent <= 7

    def test_objects_expire_from_ldm(self):
        calls = [0]

        def provider():
            calls[0] += 1
            return ([PerceivedObject(7, 2.0, 3.0)]
                    if calls[0] < 3 else [])

        sim, sender, receiver, vehicle = build_cp_pair(provider)
        sim.run_until(0.5)
        assert vehicle.ldm.get("cpm:900:7") is not None
        sim.run_until(4.0)
        assert vehicle.ldm.get("cpm:900:7") is None

    def test_callback_invoked(self):
        def provider():
            return [PerceivedObject(1, 1.0, 1.0)]

        sim, sender, receiver, vehicle = build_cp_pair(provider)
        got = []
        receiver.on_cpm(lambda cpm: got.append(cpm.station_id))
        sim.run_until(0.5)
        assert 900 in got


class TestCpmBlindCorner:
    def test_cpm_mode_avoids_collision(self):
        from repro.core.blind_corner import (
            BlindCornerScenario,
            BlindCornerTestbed,
        )

        result = BlindCornerTestbed(BlindCornerScenario(
            seed=2, warning="cpm")).run()
        assert not result.collision
        assert result.cpm_triggered
        assert not result.denm_received
        assert result.cpm_objects_learned > 5
        assert result.stop_margin > 0.1

    def test_cpm_mode_no_false_stop(self):
        from repro.core.blind_corner import (
            BlindCornerScenario,
            BlindCornerTestbed,
        )

        # Crosser timed to clear the intersection before the
        # protagonist arrives: no conflict, no brake.
        result = BlindCornerTestbed(BlindCornerScenario(
            seed=1, warning="cpm", crosser_start=3.4)).run()
        assert not result.collision
        assert not result.cpm_triggered
        assert not result.protagonist_stopped

    def test_denm_mode_stops_even_without_conflict(self):
        from repro.core.blind_corner import (
            BlindCornerScenario,
            BlindCornerTestbed,
        )

        result = BlindCornerTestbed(BlindCornerScenario(
            seed=1, warning="denm", crosser_start=3.4)).run()
        assert result.denm_received
        assert result.protagonist_stopped  # the false-positive stop

    def test_unknown_warning_mode_rejected(self):
        from repro.core.blind_corner import (
            BlindCornerScenario,
            BlindCornerTestbed,
        )

        with pytest.raises(ValueError):
            BlindCornerTestbed(BlindCornerScenario(
                seed=1, warning="smoke-signals"))
