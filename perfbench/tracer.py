"""Per-layer wall-time attribution, applied to the ``repro`` stack from outside.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces the
public entry points of each layer (and a few private hot spots, such as
``WirelessMedium._attempt_reception``) with timing wrappers, and wraps
every callback handed to a registration point (``Simulator.schedule_at``,
``Event.add_callback``, ``NetworkInterface.on_receive``,
``HttpServer.route``, the CA/DEN ``on_*`` hooks).  A wrapped callback is
attributed to the layer of the module that defined it.

Each wrapper opens a span on a stack.  When it closes, its duration
minus the time its child spans covered is added to its layer's self
time, so a layer's figure excludes the layers it called.  Counts are
recorded at the same boundaries.  :meth:`Tracer.remove` restores every
original object; :meth:`Tracer.leftovers` proves nothing stayed patched.

Functions imported by name into another module are patched in every
namespace that holds them, so ``from repro.vision.canny import canny``
in the line follower is wrapped too.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Callback module prefix -> the self-time key it is charged to.  The
#: longest matching prefix wins; anything else is ``other.self_s``.
LAYER_BY_MODULE: Dict[str, str] = {
    "repro.sim": "sim.self_s",
    "repro.vision": "vision.render_s",
    "repro.vision.canny": "vision.canny_s",
    "repro.vision.filters": "vision.canny_s",
    "repro.vision.hough": "vision.hough_s",
    "repro.vehicle": "vehicle.self_s",
    "repro.roadside": "roadside.self_s",
    "repro.openc2x": "openc2x.unit_s",
    "repro.openc2x.http": "openc2x.http_s",
    "repro.facilities": "facilities.other_s",
    "repro.facilities.ca_service": "facilities.ca_s",
    "repro.facilities.den_service": "facilities.den_s",
    "repro.facilities.ldm": "facilities.ldm_s",
    "repro.geonet": "geonet.self_s",
    "repro.net": "net.medium_s",
    "repro.net.nic": "net.nic_s",
    "repro.net.phy": "net.phy_s",
    "repro.net.propagation": "net.propagation_s",
    "repro.net.mac": "net.mac_s",
    "repro.net.dcc": "net.dcc_s",
    "repro.security": "security.self_s",
    "repro.core": "core.run_s",
    "repro.analysis": "analysis.engine_s",
}
OTHER = "other.self_s"

#: (module, attribute path, self-time key, count key, tally).  A tally
#: is (count key, function of the return value) and adds its result.
_Target = Tuple[str, str, str, Optional[str],
                Optional[Tuple[str, Callable[[Any], int]]]]

TARGETS: Tuple[_Target, ...] = (
    ("repro.vision.image", "render_line_view", "vision.render_s", None,
     None),
    ("repro.vision.canny", "canny", "vision.canny_s", "vision.frames",
     None),
    ("repro.vision.hough", "probabilistic_hough", "vision.hough_s", None,
     ("vision.segments", len)),
    ("repro.roadside.yolo", "SimulatedYolo.detect", "roadside.self_s",
     "roadside.yolo_detects", None),
    ("repro.openc2x.http", "HttpServer.submit", "openc2x.http_s",
     "openc2x.requests", None),
    ("repro.facilities.ca_service", "CaBasicService._generate",
     "facilities.ca_s", "facilities.cams_sent", None),
    ("repro.facilities.ca_service", "CaBasicService._on_payload",
     "facilities.ca_s", "facilities.cams_received", None),
    ("repro.facilities.den_service", "DenBasicService.trigger",
     "facilities.den_s", None, None),
    ("repro.facilities.den_service", "DenBasicService._on_payload",
     "facilities.den_s", None, None),
    ("repro.facilities.ldm", "Ldm.put", "facilities.ldm_s", None, None),
    ("repro.facilities.ldm", "Ldm.query", "facilities.ldm_s", None, None),
    ("repro.geonet.router", "GeoNetRouter.send_shb", "geonet.self_s",
     "geonet.packets_sent", None),
    ("repro.geonet.router", "GeoNetRouter.send_gbc", "geonet.self_s",
     "geonet.packets_sent", None),
    ("repro.geonet.router", "GeoNetRouter.send_guc", "geonet.self_s",
     "geonet.packets_sent", None),
    ("repro.net.medium", "WirelessMedium.transmit", "net.medium_s",
     "net.frames_sent", None),
    ("repro.net.medium", "WirelessMedium._attempt_reception",
     "net.medium_s", "net.receptions_attempted", None),
    ("repro.net.nic", "NetworkInterface.deliver", "net.nic_s",
     "net.frames_delivered", None),
    ("repro.net.nic", "NetworkInterface.overlapped_own_tx",
     "net.overlap_check_s", "net.overlap_checks", None),
    ("repro.net.propagation", "LinkBudget.received_power_dbm",
     "net.propagation_s", "net.link_budget_evals", None),
    ("repro.net.phy", "Mcs.packet_error_rate", "net.phy_s", None, None),
    ("repro.net.phy", "PhyConfig.airtime", "net.phy_s", None, None),
    ("repro.net.mac", "EdcaMac.enqueue", "net.mac_s", None, None),
    ("repro.net.dcc", "DccGatekeeper.send", "net.dcc_s", None, None),
    ("repro.core.testbed", "ScaleTestbed.__init__", "core.build_s", None,
     None),
    ("repro.core.fleet.testbed", "FleetTestbed.__init__", "core.build_s",
     None, None),
    ("repro.core.testbed", "CampaignResult.digest", "core.fold_s", None,
     None),
    ("repro.core.fleet.result", "fleet_runs_digest", "core.fold_s", None,
     None),
    ("repro.analysis.engine", "_check_file", "analysis.file_rules_s", None,
     None),
    ("repro.analysis.interproc.symbols", "build_symbol_table",
     "analysis.symbols_s", None, None),
    ("repro.analysis.interproc.project", "build_project",
     "analysis.callgraph_s", None, None),
    ("repro.analysis.interproc.callgraph", "build_call_graph",
     "analysis.callgraph_s", None, None),
    ("repro.analysis.interproc.sites", "collect_schedule_sites",
     "analysis.sites_s", None, None),
    ("repro.analysis.interproc.dataflow", "tainted_functions",
     "analysis.taint_s", None, None),
    ("repro.analysis.interproc.effects", "infer_effects",
     "analysis.effects_s", None, None),
    ("repro.analysis.interproc.serialization", "build_serialization_map",
     "analysis.serialization_s", None, None),
    ("repro.analysis.schedule_rules", "check_project_rules",
     "analysis.project_rules_s", None, None),
) + tuple(
    (f"repro.messages.{module}", f"{cls}.{method}", f"asn1.{method}_s",
     f"asn1.{method}s", ("asn1.bytes_encoded", len)
     if method == "encode" else None)
    for module, cls in (("cam", "Cam"), ("denm", "Denm"), ("cpm", "Cpm"),
                        ("spat", "Spatem"), ("spat", "Mapem"))
    for method in ("encode", "decode"))

#: Registration points whose callback argument (by position, after
#: ``self``) is wrapped and charged to the callback's own layer.
HOOKS: Tuple[Tuple[str, str, int], ...] = (
    ("repro.sim.kernel", "Event.add_callback", 0),
    ("repro.net.nic", "NetworkInterface.on_receive", 0),
    ("repro.net.nic", "NetworkInterface.on_loss", 0),
    ("repro.net.fiveg", "FivegStation.on_receive", 0),
    ("repro.openc2x.http", "HttpServer.route", 1),
    ("repro.openc2x.unit", "OpenC2XUnit.on_event", 0),
    ("repro.facilities.ca_service", "CaBasicService.on_cam", 0),
    ("repro.facilities.den_service", "DenBasicService.on_denm", 0),
)

#: Kernel entry points with wrappers of their own (Tracer methods).
_SPECIAL: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator.schedule_at", "_schedule_at"),
    ("repro.sim.kernel", "Simulator.run_until", "_run_until"),
    ("repro.sim.process", "Process._resume", "_resume"),
)

#: Every self-time key the tracer can charge.
TIME_KEYS: Tuple[str, ...] = tuple(sorted(
    {target[2] for target in TARGETS} | set(LAYER_BY_MODULE.values())
    | {OTHER}))
#: Every count key the tracer can record.
COUNT_KEYS: Tuple[str, ...] = tuple(sorted(
    {"sim.events", "sim.scheduled"}
    | {target[3] for target in TARGETS if target[3]}
    | {target[4][0] for target in TARGETS if target[4]}))

_MARK = "_perfbench_original"


def layer_of_module(module: Optional[str]) -> str:
    """The self-time key for code defined in *module*."""
    name = module or ""
    while name:
        key = LAYER_BY_MODULE.get(name)
        if key is not None:
            return key
        name = name.rpartition(".")[0]
    return OTHER


def _module_of(callback: Any) -> Optional[str]:
    module = getattr(callback, "__module__", None)
    if module is None and hasattr(callback, "func"):  # functools.partial
        module = getattr(callback.func, "__module__", None)
    return module


class Tracer:
    """Span stack, per-layer self time and counts for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.sim_seconds = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[Optional[str], str] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], key: str,
             count: Optional[str] = None,
             tally: Optional[Tuple[str, Callable[[Any], int]]] = None,
             ) -> Callable[..., Any]:
        """*fn* inside a span charged to *key*."""
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        counts = self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                counts[count] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                spans[key] += 1
                if stack:
                    stack[-1][0] += elapsed
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def callback(self, fn: Callable[..., Any],
                 count: Optional[str] = None) -> Callable[..., Any]:
        """*fn* wrapped and charged to the layer that defined it."""
        module = _module_of(fn)
        key = self._layer_cache.get(module)
        if key is None:
            key = self._layer_cache[module] = layer_of_module(module)
        return self.wrap(fn, key, count)

    def reset(self) -> None:
        """Zero all totals (between operations)."""
        self.self_s.clear()
        self.spans.clear()
        self.counts.clear()
        self.sim_seconds = 0.0

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every target, hook and the kernel's scheduler."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import everything first: a module imported after a patch would
        # bind the wrapper by name, and removal would not know to undo it.
        for module, *_ in TARGETS + HOOKS + _SPECIAL:
            importlib.import_module(module)
        for module, path, key, count, tally in TARGETS:
            self._patch(module, path,
                        lambda fn, k=key, c=count, t=tally:
                        self.wrap(fn, k, c, t))
        for module, path, index in HOOKS:
            self._patch(module, path,
                        lambda fn, i=index: self._hook(fn, i))
        for module, path, method in _SPECIAL:
            self._patch(module, path, getattr(self, method))

    def remove(self) -> None:
        """Restore every patched object, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def leftovers(self) -> List[str]:
        """Names in any loaded module or its classes still holding a wrapper."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                if hasattr(_unwrap_descriptor(value), _MARK):
                    found.append(f"{mod_name}.{name}")
                if isinstance(value, type) and mod_name.startswith("repro"):
                    for attr, member in vars(value).items():
                        if hasattr(_unwrap_descriptor(member), _MARK):
                            found.append(f"{mod_name}.{name}.{attr}")
        return sorted(set(found))

    def _patch(self, module_name: str, path: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]],
               ) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                replacement: Any = staticmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patches.append((holder, name, original))
                    setattr(holder, name, wrapped)

    # ------------------------------------------------------------------
    # Special wrappers
    # ------------------------------------------------------------------

    def _hook(self, register: Callable[..., Any], index: int,
              ) -> Callable[..., Any]:
        def hooked(owner: Any, *args: Any) -> Any:
            args_list = list(args)
            args_list[index] = self.callback(args_list[index])
            return register(owner, *args_list)

        setattr(hooked, _MARK, register)
        return hooked

    def _schedule_at(self, schedule_at: Callable[..., Any],
                     ) -> Callable[..., Any]:
        timed = self.wrap(schedule_at, "sim.self_s", "sim.scheduled")

        def scheduled(sim: Any, when: float, callback: Any) -> Any:
            return timed(sim, when, self.callback(callback, "sim.events"))

        setattr(scheduled, _MARK, schedule_at)
        return scheduled

    def _run_until(self, run_until: Callable[..., Any],
                   ) -> Callable[..., Any]:
        timed = self.wrap(run_until, "sim.self_s")

        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            started_at = sim.now
            try:
                return timed(sim, *args, **kwargs)
            finally:
                self.sim_seconds += sim.now - started_at

        setattr(run, _MARK, run_until)
        return run

    def _resume(self, resume: Callable[..., Any]) -> Callable[..., Any]:
        """A process step is charged to the module of its generator."""
        by_layer: Dict[str, Callable[..., Any]] = {}

        def step(process: Any, *args: Any) -> Any:
            frame = process._generator.gi_frame
            module = None if frame is None else frame.f_globals.get(
                "__name__")
            key = layer_of_module(module)
            timed = by_layer.get(key)
            if timed is None:
                timed = by_layer[key] = self.wrap(resume, key)
            return timed(process, *args)

        setattr(step, _MARK, resume)
        return step


def _unwrap_descriptor(value: Any) -> Any:
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__
    return value
