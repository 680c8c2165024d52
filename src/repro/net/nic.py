"""A network interface: MAC + PHY bound to a position on the medium.

The NIC is what upper layers (the GeoNetworking router) talk to:
``send(frame)`` queues for EDCA access; a receive callback delivers
decoded frames with reception metadata.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.net.frame import Frame
from repro.net.mac import EdcaMac
from repro.net.medium import ReceptionInfo, WirelessMedium
from repro.net.phy import PhyConfig
from repro.sim.kernel import Simulator

PositionFn = Callable[[], Tuple[float, float]]
RxCallback = Callable[[Frame, ReceptionInfo], None]
LossCallback = Callable[[Frame, str], None]


class NetworkInterface:
    """One 802.11p radio.

    Args:
        sim: the simulation kernel.
        medium: the shared channel.
        name: unique station identifier (used as MAC address).
        position: callable returning the antenna's (x, y) in metres;
            for mobile stations this reads the vehicle's live pose.
        phy: PHY parameters (power, rate, sensitivity).
        rng: randomness for MAC backoff.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        name: str,
        position: PositionFn,
        phy: Optional[PhyConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.medium = medium
        self.name = name
        self.position = position
        self.phy = phy or PhyConfig()
        self.mac = EdcaMac(sim, rng or np.random.default_rng(0), self)
        self._rx_callbacks: List[RxCallback] = []
        self._loss_callbacks: List[LossCallback] = []
        # Own transmissions, oldest first, as parallel start/end lists.
        # The MAC sends one frame at a time, so the intervals are
        # disjoint and both lists are non-decreasing.
        self._own_tx_starts: List[float] = []
        self._own_tx_ends: List[float] = []
        self.frames_received = 0
        self.frames_lost = 0
        medium.attach(self)

    # ------------------------------------------------------------------
    # Upper layer API
    # ------------------------------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Queue *frame* for channel access.  False if tail-dropped."""
        frame.source = self.name
        return self.mac.enqueue(frame)

    def on_receive(self, callback: RxCallback) -> None:
        """Register a callback for successfully decoded frames."""
        self._rx_callbacks.append(callback)

    def on_loss(self, callback: LossCallback) -> None:
        """Register a callback for frames heard but not decoded."""
        self._loss_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Medium-side API
    # ------------------------------------------------------------------

    def start_transmission(self, frame: Frame) -> float:
        """Called by the MAC; puts the frame on the air."""
        duration = self.medium.transmit(self, frame)
        now = self.sim.now
        ends = self._own_tx_ends
        assert duration > 0, f"{self.name}: airtime {duration} s"
        assert not ends or now >= ends[-1], (
            f"{self.name} started a transmission at t={now} before its "
            f"previous one ended at t={ends[-1]}")
        self._own_tx_starts.append(now)
        ends.append(now + duration)
        return duration

    def overlapped_own_tx(self, start: float, end: float) -> bool:
        """Whether this NIC transmitted at any point during [start, end].

        For ``start < end``, an own transmission [s, e] counts when
        ``min(e, end) > max(s, start)``: touching at an endpoint is not
        an overlap.  The first interval ending after *start* is the only
        candidate, since every later one starts no earlier.
        """
        i = bisect_right(self._own_tx_ends, start)
        return i < len(self._own_tx_starts) and self._own_tx_starts[i] < end

    def deliver(self, frame: Frame, info: ReceptionInfo) -> None:
        """Called by the medium on successful decode."""
        self.frames_received += 1
        for callback in self._rx_callbacks:
            callback(frame, info)

    def on_frame_lost(self, frame: Frame, reason: str) -> None:
        """Called by the medium when a frame could not be decoded."""
        self.frames_lost += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("phy.frames_lost", device=self.name, reason=reason)
        for callback in self._loss_callbacks:
            callback(frame, reason)
