"""The Line Detection node (paper Figure 6).

Consumes camera frames, runs Canny edge detection and the
probabilistic Hough transform, and converts the detected segments
back into a lateral offset + heading error estimate for the Motion
Planner.  The geometric inversion mirrors the renderer's forward
mapping, so with a clean frame the estimate converges to the true
offset (validated by tests).

Processing takes real time on the Jetson; the node models that as an
``inference_latency`` between frame arrival and estimate publication,
and drops frames that arrive while busy (the real pipeline is
frame-rate bound the same way).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator
from repro.vehicle.sensors import CameraFrame
from repro.vision.canny import canny
from repro.vision.hough import LineSegment, probabilistic_hough
from repro.vision.image import LineViewConfig


@dataclasses.dataclass(frozen=True)
class LineEstimate:
    """What the detector tells the Motion Planner."""

    lateral_offset: float      # m, vehicle right of line = positive
    heading_error: float       # rad, vehicle pointing right = positive
    segments: int              # how many Hough segments supported it
    captured_at: float         # frame timestamp
    published_at: float        # when the estimate left the node
    line_visible: bool = True


class LineDetectionNode:
    """Camera frames -> line estimates."""

    def __init__(
        self,
        sim: Simulator,
        publish: Callable[[LineEstimate], None],
        view: Optional[LineViewConfig] = None,
        inference_latency: float = 0.015,
        canny_low: float = 0.15,
        canny_high: float = 0.3,
        hough_threshold: int = 8,
        min_line_length: int = 15,
        max_line_gap: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.publish = publish
        self.view = view or LineViewConfig()
        self.inference_latency = inference_latency
        self.canny_low = canny_low
        self.canny_high = canny_high
        self.hough_threshold = hough_threshold
        self.min_line_length = min_line_length
        self.max_line_gap = max_line_gap
        self.rng = rng or np.random.default_rng(0)
        self._busy = False
        self.frames_processed = 0
        self.frames_dropped = 0
        self.no_line_frames = 0

    def on_frame(self, frame: CameraFrame) -> None:
        """Topic callback: process *frame* unless the node is busy."""
        if self._busy:
            self.frames_dropped += 1
            return
        self._busy = True
        estimate = self._process(frame)
        self.sim.schedule(self.inference_latency,
                          lambda: self._publish(estimate))

    def _publish(self, estimate: LineEstimate) -> None:
        self._busy = False
        self.publish(dataclasses.replace(estimate,
                                         published_at=self.sim.now))

    def _process(self, frame: CameraFrame) -> LineEstimate:
        self.frames_processed += 1
        edges = canny(frame.image, self.canny_low, self.canny_high)
        # Region filter: "applying a region filter to only receive the
        # center of the image" -- blank the lateral margins.
        margin = self.view.width // 8
        edges[:, :margin] = False
        edges[:, -margin:] = False
        segments = probabilistic_hough(
            edges,
            threshold=self.hough_threshold,
            min_line_length=self.min_line_length,
            max_line_gap=self.max_line_gap,
            rng=self.rng,
        )
        # Keep roughly vertical segments (the line's two borders).
        vertical = [s for s in segments
                    if abs(abs(s.angle) - math.pi / 2.0) < math.radians(40)]
        if not vertical:
            self.no_line_frames += 1
            return LineEstimate(
                lateral_offset=0.0, heading_error=0.0, segments=0,
                captured_at=frame.captured_at, published_at=self.sim.now,
                line_visible=False)
        offset, heading = self._invert_geometry(vertical)
        return LineEstimate(
            lateral_offset=offset, heading_error=heading,
            segments=len(vertical), captured_at=frame.captured_at,
            published_at=self.sim.now)

    def _invert_geometry(self, segments) -> tuple:
        """Undo the renderer's mapping: pixels -> (offset m, heading rad)."""
        cfg = self.view
        bottoms = []
        tops = []
        for seg in segments[:4]:
            x_bottom, x_top = _extrapolate(seg, cfg.height)
            bottoms.append(x_bottom)
            tops.append(x_top)
        x_bottom = float(np.mean(bottoms))
        x_top = float(np.mean(tops))
        offset = (cfg.width / 2.0 - x_bottom) / cfg.pixels_per_metre
        heading = (x_bottom - x_top) / cfg.pixels_per_radian
        return offset, heading


def _extrapolate(segment: LineSegment, height: int) -> tuple:
    """The segment's column at the bottom row and at the top row."""
    if abs(segment.y2 - segment.y1) < 1e-6:
        return segment.midpoint_x, segment.midpoint_x
    slope = (segment.x2 - segment.x1) / (segment.y2 - segment.y1)
    x_bottom = segment.x1 + slope * (height - 1 - segment.y1)
    x_top = segment.x1 + slope * (0 - segment.y1)
    return x_bottom, x_top
