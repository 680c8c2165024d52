"""The determinism rule catalogue (DET001..DET008).

Every rule is a static, AST-level check for a code pattern that can
break the repo's central invariant: a run is a pure function of its
scenario and seed, so serial == parallel == instrumented, bit for
bit.  The rules are deliberately *pattern* checks, not whole-program
dataflow: they are precise enough to run clean over ``src/`` and
loose enough that a genuine exception is a one-line suppression with
a written reason (see ``repro.analysis.suppressions``).

The catalogue (rationale per rule in ARCHITECTURE.md §10):

========  ==========================================================
DET001    no module-level or unseeded ``random``/``numpy.random``
          outside the ``repro.sim.randomness`` substream factory
DET002    no wall-clock reads (``time.time``, ``time.monotonic``,
          ``datetime.now``/``today``) anywhere in ``src/``
DET003    no iteration over sets anywhere, nor over mapping views
          inside canonical exporters/mergers, without ``sorted(...)``
DET004    no float ``+=`` accumulators in exactly-mergeable state
          (classes with a ``merge``); use ``Fraction``/int counts
DET005    every ``obs``/fault seam use must be None-guarded
          (the no-op-when-unset pattern)
DET006    every class with ``to_dict`` pairs a ``from_dict``
DET007    no locale-/environment-dependent formatting
          (``os.environ``, ``locale``, ``strftime``) in ``src/``
DET008    process-pool boundaries: only module-level callables are
          submitted, and boundary dataclasses are ``frozen=True``
========  ==========================================================
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding


@dataclasses.dataclass
class ModuleContext:
    """One parsed source file, as seen by every rule."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str]
    #: local name -> dotted origin (``np`` -> ``numpy``,
    #: ``perf_counter`` -> ``time.perf_counter``).
    imports: Dict[str, str]


def build_context(path: str, module: str, source: str,
                  tree: ast.Module) -> ModuleContext:
    """Assemble the :class:`ModuleContext` for one file."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.asname and alias.name or \
                    alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return ModuleContext(path=path, module=module, source=source,
                         tree=tree, lines=source.splitlines(),
                         imports=imports)


def resolve_target(ctx: ModuleContext,
                   node: ast.expr) -> Optional[str]:
    """The dotted import origin of an expression, if resolvable.

    ``np.random.default_rng`` resolves to
    ``numpy.random.default_rng`` when ``np`` was imported as numpy;
    expressions rooted in anything but an imported name resolve to
    None.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = ctx.imports.get(current.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _snippet(ctx: ModuleContext, node: ast.AST) -> str:
    lineno = getattr(node, "lineno", 0)
    if 0 < lineno <= len(ctx.lines):
        return ctx.lines[lineno - 1].strip()
    return ""


class Rule:
    """Base class: one determinism invariant, machine-checked."""

    rule_id: str = "DET999"
    title: str = ""
    rationale: str = ""
    #: Module prefixes exempt from this rule (the sanctioned homes of
    #: the pattern, e.g. the substream factory for RNG calls).
    allowed_modules: Tuple[str, ...] = ()

    def exempt(self, ctx: ModuleContext) -> bool:
        """Whether *ctx*'s module is allowlisted for this rule."""
        return any(ctx.module == prefix
                   or ctx.module.startswith(prefix + ".")
                   for prefix in self.allowed_modules)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation in *ctx*."""
        raise NotImplementedError  # pragma: no cover - interface

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """A :class:`Finding` anchored at *node*."""
        return Finding(
            rule=self.rule_id, path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message, snippet=_snippet(ctx, node))


def _enclosing_functions(tree: ast.Module
                         ) -> Dict[ast.AST, Optional[ast.AST]]:
    """node -> nearest enclosing function def (or None)."""
    out: Dict[ast.AST, Optional[ast.AST]] = {}

    def visit(node: ast.AST, current: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            out[child] = current
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, child)
            else:
                visit(child, current)

    visit(tree, None)
    return out


# ---------------------------------------------------------------------------
# DET001 -- unseeded / module-level randomness
# ---------------------------------------------------------------------------


class UnseededRandomRule(Rule):
    """All randomness must come from named, seeded substreams."""

    rule_id = "DET001"
    title = "unseeded or module-level randomness"
    rationale = (
        "Global random state is shared across runs and workers; a "
        "single draw outside the seeded substream registry makes "
        "serial and parallel campaigns diverge.  Draw from a "
        "repro.sim.randomness substream instead.")
    allowed_modules = ("repro.sim.randomness",)

    #: numpy.random attributes that are constructors of *seedable*
    #: state, legal when given an explicit seed argument.
    _SEEDED_CONSTRUCTORS = {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        enclosing = _enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(ctx, node.func)
            if target is None:
                continue
            at_module_level = enclosing.get(node) is None
            if target.startswith("random."):
                if target == "random.Random" and \
                        (node.args or node.keywords):
                    if at_module_level:
                        yield self.finding(
                            ctx, node,
                            "module-level random.Random instance is "
                            "shared state across runs; create it "
                            "per run from the seed")
                    continue
                yield self.finding(
                    ctx, node,
                    f"call to {target} uses the global (unseeded) "
                    f"random state; draw from a "
                    f"repro.sim.randomness substream")
            elif target.startswith("numpy.random."):
                if target in self._SEEDED_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx, node,
                            f"{target}() without a seed is "
                            f"entropy-seeded and unreproducible; "
                            f"pass an explicit seed")
                    elif at_module_level:
                        yield self.finding(
                            ctx, node,
                            f"module-level {target}(...) is RNG "
                            f"state shared across runs; create "
                            f"generators per run from the scenario "
                            f"seed")
                    continue
                yield self.finding(
                    ctx, node,
                    f"call to {target} uses numpy's global random "
                    f"state; use a Generator from a "
                    f"repro.sim.randomness substream")


# ---------------------------------------------------------------------------
# DET002 -- wall-clock reads
# ---------------------------------------------------------------------------


class WallClockRule(Rule):
    """Simulated code must read ``sim.now``, never the host clock."""

    rule_id = "DET002"
    title = "wall-clock read"
    rationale = (
        "Wall time differs between hosts, runs and workers; one "
        "time.time() in a simulated path breaks bit-identity.  "
        "Simulated code reads sim.now; observability measures sim "
        "time only, and wall-time attribution of the simulator is "
        "applied from outside the package.")

    _BANNED = {
        "time.time": "read sim.now instead",
        "time.time_ns": "read sim.now instead",
        "time.monotonic": "read sim.now instead",
        "time.monotonic_ns": "read sim.now instead",
        "time.localtime": "wall-clock and TZ-dependent",
        "time.gmtime": "wall-clock dependent",
        "time.ctime": "wall-clock and locale-dependent",
        "datetime.datetime.now": "read sim.now instead",
        "datetime.datetime.utcnow": "read sim.now instead",
        "datetime.datetime.today": "wall-clock dependent",
        "datetime.date.today": "wall-clock dependent",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(ctx, node.func)
            if target is None:
                continue
            why = self._BANNED.get(target)
            if why is not None:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {target}() in simulated code "
                    f"({why}); no module may steer on the host clock")


# ---------------------------------------------------------------------------
# DET003 -- unsorted iteration feeding canonical output
# ---------------------------------------------------------------------------


#: Function names whose output is canonical (serialisation, hashing,
#: merging, aggregation): mapping-view iteration order matters there.
_CANONICAL_NAME_RE = re.compile(
    r"(^to_|_to_|fingerprint|canonical|merge|aggregat|render|export"
    r"|prometheus|jsonl|json\b|_json|csv|hash)")


class UnsortedIterationRule(Rule):
    """Iteration feeding canonical output must be ``sorted(...)``."""

    rule_id = "DET003"
    title = "unsorted set/mapping-view iteration in canonical paths"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED for str "
        "keys; mapping views iterate in insertion order, which is "
        "an accident of call history.  Anything feeding "
        "serialisation, hashing or campaign aggregation must "
        "iterate in sorted order to be byte-stable.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        enclosing = _enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                yield from self._check_iterable(ctx, node, it,
                                                enclosing)

    def _check_iterable(self, ctx: ModuleContext, node: ast.AST,
                        it: ast.expr,
                        enclosing: Dict[ast.AST, Optional[ast.AST]]
                        ) -> Iterator[Finding]:
        if self._is_order_blessed(it):
            return
        if self._is_set_expr(it):
            yield self.finding(
                ctx, it,
                "iteration over a set is hash-order dependent; "
                "wrap the iterable in sorted(...)")
            return
        view = self._mapping_view(it)
        if view is not None:
            function = enclosing.get(node)
            name = getattr(function, "name", "")
            if function is not None and \
                    _CANONICAL_NAME_RE.search(name):
                yield self.finding(
                    ctx, it,
                    f"iteration over .{view}() inside canonical "
                    f"function {name}() relies on insertion order; "
                    f"wrap it in sorted(...) so the output is "
                    f"byte-stable")

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    @staticmethod
    def _mapping_view(node: ast.expr) -> Optional[str]:
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args and not node.keywords):
            return node.func.attr
        return None

    @staticmethod
    def _is_order_blessed(node: ast.expr) -> bool:
        """Whether the iterable is already explicitly ordered."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Name) and \
                    sub.func.id in ("sorted", "reversed"):
                return True
            if isinstance(sub, ast.Name) and "sorted" in sub.id:
                return True
            if isinstance(sub, ast.Attribute) and \
                    "sorted" in sub.attr:
                return True
        return False


# ---------------------------------------------------------------------------
# DET004 -- float accumulators in exactly-mergeable state
# ---------------------------------------------------------------------------


class FloatAccumulatorRule(Rule):
    """Mergeable state must fold exactly (Fraction / int counts)."""

    rule_id = "DET004"
    title = "float += accumulator in exactly-mergeable state"
    rationale = (
        "Float addition is not associative, so a float accumulator "
        "that a merge() folds makes the result depend on merge "
        "order -- exactly what campaign aggregation must not do.  "
        "Keep counts as int and sums as fractions.Fraction (every "
        "float is an exact rational), converting to float only at "
        "the export edge.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        merge = next((item for item in cls.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "merge"), None)
        if merge is None:
            return
        float_attrs = self._float_initialised_attrs(cls)
        for node in ast.walk(merge):
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)):
                continue
            target = node.target
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr in float_attrs:
                yield self.finding(
                    ctx, node,
                    f"merge() accumulates float attribute "
                    f"{cls.name}.{target.attr} with +=; float sums "
                    f"are merge-order dependent -- store a "
                    f"fractions.Fraction (or integer count) and "
                    f"convert to float at export")

    @staticmethod
    def _float_initialised_attrs(cls: ast.ClassDef) -> Set[str]:
        """Attributes whose initial value is a float literal."""
        attrs: Set[str] = set()
        for item in cls.body:
            # Dataclass-style: ``total: float = 0.0``.
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                annotation = item.annotation
                if isinstance(annotation, ast.Name) and \
                        annotation.id == "float":
                    attrs.add(item.target.id)
            # __init__-style: ``self.total = 0.0``.
            if isinstance(item, ast.FunctionDef) and \
                    item.name == "__init__":
                for node in ast.walk(item):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not (isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, float)):
                        continue
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Attribute) and \
                                isinstance(tgt.value, ast.Name) and \
                                tgt.value.id == "self":
                            attrs.add(tgt.attr)
        return attrs


# ---------------------------------------------------------------------------
# DET005 -- unguarded seam use
# ---------------------------------------------------------------------------


class SeamGuardRule(Rule):
    """Instrumentation/fault seams follow no-op-when-unset."""

    rule_id = "DET005"
    title = "seam used without a None guard"
    rationale = (
        "The obs, fault and tie-audit seams default to None so an "
        "unobserved, fault-free, unaudited run is bit-identical to "
        "pre-seam builds.  Every use site must bind-and-guard (obs "
        "= sim.obs; if obs is not None: ...); an unguarded use "
        "either crashes or silently forces the seam always-on.")

    #: Attribute names that are seams (None when unset, by contract).
    SEAM_ATTRS = ("obs", "impairment", "drop_filter", "tie_audit")

    #: The modules that *implement* the seams (the obs collectors
    #: themselves, the fault installer) rather than consume them.
    allowed_modules = ("repro.obs", "repro.faults.injector")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: ModuleContext,
                        function: ast.AST) -> Iterator[Finding]:
        guards: Set[str] = set()
        aliases: Set[str] = set()
        body = getattr(function, "body", [])
        # Pass 1: collect None-comparisons and seam-bound locals,
        # ignoring nested defs (they get their own visit).
        for node in self._walk_shallow(body):
            if isinstance(node, ast.Compare) and \
                    len(node.ops) == 1 and \
                    isinstance(node.ops[0], (ast.Is, ast.IsNot)) and \
                    isinstance(node.comparators[0], ast.Constant) and \
                    node.comparators[0].value is None:
                guards.add(ast.dump(node.left))
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr in self.SEAM_ATTRS:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        aliases.add(tgt.id)
        # Pass 2: find seam uses and demand a guard in scope.
        for node in self._walk_shallow(body):
            seam_expr, seam_name = self._seam_use(node, aliases)
            if seam_expr is None:
                continue
            if ast.dump(seam_expr) in guards:
                continue
            yield self.finding(
                ctx, node,
                f"use of seam '{seam_name}' without an 'is None' "
                f"guard in this function; bind it to a local and "
                f"follow the no-op-when-unset pattern "
                f"(x = ...{seam_name}; if x is not None: ...)")

    @staticmethod
    def _walk_shallow(body: List[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested defs."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef)):
                    continue
                stack.append(child)

    def _seam_use(self, node: ast.AST, aliases: Set[str]
                  ) -> Tuple[Optional[ast.expr], str]:
        """(guard-expression, seam-name) when *node* uses a seam."""
        # Chained attribute access: <expr>.obs.<anything>.
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr in self.SEAM_ATTRS and \
                isinstance(node.value.ctx, ast.Load):
            return node.value, node.value.attr
        if isinstance(node, ast.Call):
            func = node.func
            # Calling the seam itself: <expr>.drop_filter(frame).
            if isinstance(func, ast.Attribute) and \
                    func.attr in self.SEAM_ATTRS:
                return func, func.attr
            # Attribute on an alias: obs.record_span(...) is covered
            # by the Attribute case below via the alias name.
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in aliases and \
                isinstance(node.value.ctx, ast.Load):
            return node.value, node.value.id
        return None, ""


# ---------------------------------------------------------------------------
# DET006 -- to_dict / from_dict pairing
# ---------------------------------------------------------------------------


class SerialisationPairRule(Rule):
    """Serialisable types must round-trip."""

    rule_id = "DET006"
    title = "to_dict without a paired from_dict"
    rationale = (
        "The run cache, the fault matrix and the golden traces all "
        "round-trip through to_dict; a type that can only "
        "serialise rots into a one-way format nobody can validate. "
        "Every to_dict pairs a from_dict classmethod with "
        "canonical key handling (unknown keys rejected or "
        "defaulted deliberately).")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            if "to_dict" in methods and "from_dict" not in methods:
                to_dict = next(item for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and item.name == "to_dict")
                yield self.finding(
                    ctx, to_dict,
                    f"class {node.name} defines to_dict but no "
                    f"from_dict; serialisable state must "
                    f"round-trip (or the export-only intent must "
                    f"be a written suppression)")


# ---------------------------------------------------------------------------
# DET007 -- locale/env-dependent formatting
# ---------------------------------------------------------------------------


class EnvFormattingRule(Rule):
    """Canonical output must not depend on the host environment."""

    rule_id = "DET007"
    title = "locale- or environment-dependent formatting"
    rationale = (
        "os.environ, locale and strftime make output depend on the "
        "host's environment variables, locale database or "
        "timezone; canonical exporters (JSON, JSONL, Prometheus "
        "text) must produce identical bytes on every machine.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = ""
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    module = node.module or ""
                    names = [module]
                if "locale" in names or module == "locale":
                    yield self.finding(
                        ctx, node,
                        "import of locale: locale-dependent "
                        "formatting has no place in deterministic "
                        "export paths")
                continue
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                target = resolve_target(ctx, node)
                if target in ("os.environ", "os.environb"):
                    yield self.finding(
                        ctx, node,
                        f"read of {target}: environment variables "
                        f"must not influence simulated behaviour "
                        f"or canonical output")
            if isinstance(node, ast.Call):
                target = resolve_target(ctx, node.func)
                if target == "os.getenv":
                    yield self.finding(
                        ctx, node,
                        "os.getenv: environment variables must not "
                        "influence simulated behaviour or "
                        "canonical output")
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("strftime", "strptime"):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.attr}() is locale- and "
                        f"timezone-dependent; canonical exporters "
                        f"format numbers and ISO strings "
                        f"explicitly")


# ---------------------------------------------------------------------------
# DET008 -- process-pool boundary hygiene
# ---------------------------------------------------------------------------


class PoolBoundaryRule(Rule):
    """What crosses the pool must pickle identically everywhere."""

    rule_id = "DET008"
    title = "unpicklable or unfrozen objects at the pool boundary"
    rationale = (
        "Work submitted to a ProcessPoolExecutor is pickled: "
        "lambdas and nested functions fail outright, and mutable "
        "scenario/plan objects invite divergence between the "
        "parent's copy and the workers' copies.  Submit "
        "module-level callables; keep boundary dataclasses "
        "frozen=True.")

    #: Modules whose dataclasses cross the pool boundary by design.
    BOUNDARY_MODULES = ("repro.core.scenario", "repro.faults.plan")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_submissions(ctx)
        if any(ctx.module == prefix
               or ctx.module.startswith(prefix + ".")
               for prefix in self.BOUNDARY_MODULES):
            yield from self._check_frozen(ctx)

    def _check_submissions(self, ctx: ModuleContext
                           ) -> Iterator[Finding]:
        enclosing = _enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and node.args):
                continue
            callee = node.args[0]
            if isinstance(callee, ast.Lambda):
                yield self.finding(
                    ctx, callee,
                    "lambda submitted to a process pool cannot be "
                    "pickled; use a module-level function")
                continue
            if isinstance(callee, ast.Name):
                function = enclosing.get(node)
                if function is not None and \
                        self._is_local_def(function, callee.id):
                    yield self.finding(
                        ctx, callee,
                        f"locally-defined callable "
                        f"{callee.id!r} submitted to a process "
                        f"pool cannot be pickled; hoist it to "
                        f"module level")

    @staticmethod
    def _is_local_def(function: ast.AST, name: str) -> bool:
        for node in ast.walk(function):
            if isinstance(node, ast.FunctionDef) and \
                    node is not function and node.name == name:
                return True
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Lambda):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        return True
        return False

    def _check_frozen(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if not self._is_dataclass_decorator(decorator):
                    continue
                if not self._is_frozen(decorator):
                    yield self.finding(
                        ctx, node,
                        f"dataclass {node.name} crosses the "
                        f"process-pool boundary but is not "
                        f"frozen=True; mutable boundary state "
                        f"invites parent/worker divergence")

    @staticmethod
    def _is_dataclass_decorator(node: ast.expr) -> bool:
        ref = node.func if isinstance(node, ast.Call) else node
        if isinstance(ref, ast.Name):
            return ref.id == "dataclass"
        if isinstance(ref, ast.Attribute):
            return ref.attr == "dataclass"
        return False

    @staticmethod
    def _is_frozen(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        for keyword in node.keywords:
            if keyword.arg == "frozen" and \
                    isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
        return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    UnsortedIterationRule(),
    FloatAccumulatorRule(),
    SeamGuardRule(),
    SerialisationPairRule(),
    EnvFormattingRule(),
    PoolBoundaryRule(),
)


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in rule-id order."""
    return tuple(sorted(_ALL_RULES, key=lambda r: r.rule_id))


def rule_ids() -> Tuple[str, ...]:
    """The registered rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_rules())


def get_rule(rule_id: str) -> Rule:
    """The rule registered under *rule_id* (raises KeyError)."""
    for rule in _ALL_RULES:
        if rule.rule_id == rule_id:
            return rule
    raise KeyError(rule_id)
