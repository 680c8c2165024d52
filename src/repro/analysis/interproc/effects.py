"""Interprocedural effect inference (the EFF family's ground layer).

Where the taint fixpoint (:mod:`repro.analysis.interproc.dataflow`)
answers "can nondeterminism reach this value", the effect layer
answers "what does calling this function *do* to the durable world":
write a file, rename one into place, fsync, draw from a random
generator.  Each function gets a *direct* effect set from its own
body, then a fixpoint over the call graph folds callee effects into
callers, so a rule can ask ``"fs.rename" in effects.of(qname)`` and
mean "anywhere below this call".

Everything here is static and deterministic: receivers are matched
by the codebase's naming conventions (``*stream*`` for the substream
factory), and unknown targets contribute nothing rather than a guess.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.interproc.callgraph import CallGraph, _FunctionResolver
from repro.analysis.interproc.symbols import FunctionSymbol, SymbolTable
from repro.analysis.rules import ModuleContext, resolve_target

# -- effect kinds -----------------------------------------------------------

FS_WRITE = "fs.write"      #: opens a file handle in a write mode
FS_MKSTEMP = "fs.mkstemp"  #: creates a temp file (the atomic pattern)
FS_RENAME = "fs.rename"    #: renames/replaces a file into place
FS_FSYNC = "fs.fsync"      #: forces written bytes to disk
RNG_DRAW = "rng.draw"      #: draws from a random generator

#: Rename/replace targets (``Path.replace`` is matched structurally:
#: a one-argument ``.replace(...)`` call -- ``str.replace`` takes two).
_RENAME_TARGETS = ("os.replace", "os.rename", "os.renames",
                   "shutil.move")

#: Temp-file factories that start the atomic write pattern.
_MKSTEMP_TARGETS = ("tempfile.mkstemp", "tempfile.NamedTemporaryFile",
                    "tempfile.mkdtemp")

#: Ad-hoc generator constructors: a draw on one of these is not a
#: named substream, whatever seed it was given (the *name* is part of
#: the draw's identity; a seeded anonymous generator still drifts the
#: moment call order changes).
ADHOC_RNG_CONSTRUCTORS = ("numpy.random.default_rng",
                          "numpy.random.Generator",
                          "numpy.random.RandomState",
                          "random.Random")

#: Method names that consume randomness from a generator object.
DRAW_METHODS = frozenset((
    "random", "uniform", "normal", "standard_normal", "integers",
    "choice", "shuffle", "permutation", "exponential", "poisson",
    "gauss", "randint", "randrange", "sample", "betavariate",
))

#: Receiver-name fragment for the substream factory convention
#: (``streams`` / ``self.streams`` / ``scoped_streams``).
_STREAM_RECEIVER_HINT = "stream"


@dataclasses.dataclass(eq=False)
class FunctionEffects:
    """Everything the effect pass extracted from one function body."""

    symbol: FunctionSymbol
    #: Direct effect kinds of this body alone.
    direct: Set[str]
    #: ``open(...)``/``os.fdopen(...)`` calls in a write mode.
    write_opens: List[ast.Call]
    #: rename/replace calls.
    renames: List[ast.Call]
    #: Every call with its strictly-resolved target (None when the
    #: receiver could not be typed; never a single-owner guess).
    calls: List[Tuple[ast.Call, Optional[str]]]


@dataclasses.dataclass
class EffectMap:
    """Per-function effect summaries plus their transitive closure."""

    per_function: Dict[str, FunctionEffects]
    #: qname -> transitive effect kinds (direct plus every callee's).
    effects: Dict[str, Set[str]]

    def of(self, qname: Optional[str]) -> Set[str]:
        """The transitive effects of *qname* (empty when unknown)."""
        if qname is None:
            return set()
        return self.effects.get(qname, set())


def _body_nodes(function: ast.AST) -> List[ast.AST]:
    """Nodes of a function body, nested defs excluded, source order."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(getattr(function, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda n: (getattr(n, "lineno", 0),
                                      getattr(n, "col_offset", 0)))


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute receiver expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_arg(call: ast.Call, index: int,
              keyword: str) -> Optional[ast.expr]:
    """Positional arg *index* or keyword *keyword* of *call*."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _is_write_mode(mode: Optional[str]) -> bool:
    return mode is not None and any(c in mode for c in "wax+")


def resolve_strict(resolver: _FunctionResolver,
                   table: SymbolTable, ctx: ModuleContext,
                   node: ast.expr) -> Optional[str]:
    """Resolve a callable without the single-owner method fallback.

    The call graph's last-resort rule (a method name defined by
    exactly one class is unambiguous) is fine for reachability but
    too eager for effect attribution: ``handle.close()`` must not
    acquire the effects of the one class that happens to define
    ``close``.  Here an Attribute call only resolves through a typed
    receiver or a dotted import origin.
    """
    if isinstance(node, ast.Name):
        return resolver.resolve_callable(node)
    if isinstance(node, ast.Attribute):
        if resolver.receiver_class(node.value) is not None:
            return resolver.resolve_callable(node)
        dotted = resolve_target(ctx, node)
        if dotted is not None and dotted in table.functions:
            return dotted
    return None


def _extract_function(table: SymbolTable, ctx: ModuleContext,
                      symbol: FunctionSymbol) -> FunctionEffects:
    """The direct effect summary of one function body."""
    resolver = _FunctionResolver(table, ctx, symbol)
    fx = FunctionEffects(symbol=symbol, direct=set(), write_opens=[],
                         renames=[], calls=[])
    for node in _body_nodes(symbol.node):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_target(ctx, node.func)
        qname = resolve_strict(resolver, table, ctx, node.func)
        fx.calls.append((node, qname))
        if isinstance(node.func, ast.Name) and \
                node.func.id == "open" or target == "io.open":
            if _is_write_mode(_literal_str(
                    _call_arg(node, 1, "mode"))):
                fx.direct.add(FS_WRITE)
                fx.write_opens.append(node)
            continue
        if target == "os.fdopen":
            if _is_write_mode(_literal_str(
                    _call_arg(node, 1, "mode"))):
                fx.direct.add(FS_WRITE)
                fx.write_opens.append(node)
            continue
        if target in _MKSTEMP_TARGETS:
            fx.direct.add(FS_MKSTEMP)
            continue
        if target in _RENAME_TARGETS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"
                and len(node.args) == 1 and not node.keywords):
            fx.direct.add(FS_RENAME)
            fx.renames.append(node)
            continue
        if target == "os.fsync":
            fx.direct.add(FS_FSYNC)
            continue
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in DRAW_METHODS and isinstance(
                    node.func.value, (ast.Name, ast.Attribute)):
            fx.direct.add(RNG_DRAW)
    return fx


def infer_effects(table: SymbolTable,
                  graph: CallGraph) -> EffectMap:
    """Direct extraction plus the caller<-callee fixpoint.

    The fixpoint propagates along the *strict* edges recorded in
    each summary's ``calls`` -- not the call graph's permissive
    edges -- so the single-owner method fallback (fine for
    reachability, wrong for attribution) can never fold a stranger
    class's effects into a caller.  *graph* is accepted for parity
    with the other interproc passes but only its node set is used.
    """
    del graph  # strict edges only; see docstring
    per_function: Dict[str, FunctionEffects] = {}
    for qname in sorted(table.functions):
        symbol = table.functions[qname]
        ctx = table.modules.get(symbol.module)
        if ctx is None:
            continue
        per_function[qname] = _extract_function(table, ctx, symbol)
    edges: Dict[str, Set[str]] = {
        qname: {callee for _node, callee in fx.calls
                if callee is not None}
        for qname, fx in per_function.items()}
    effects = {q: set(fx.direct) for q, fx in per_function.items()}
    changed = True
    while changed:
        changed = False
        for caller in sorted(edges):
            own = effects.setdefault(caller, set())
            for callee in sorted(edges[caller]):
                extra = effects.get(callee, set()) - own
                if extra:
                    own |= extra
                    changed = True
    return EffectMap(per_function=per_function, effects=effects)


def leading_literal(symbol: FunctionSymbol,
                    expr: ast.expr, depth: int = 0) -> Optional[str]:
    """The statically-known leading text of a string expression.

    Follows literals, f-strings (up to the first interpolation),
    ``+`` concatenation and single local assignments, so
    ``scope = f"vary.lhs.{spec.name}"; streams.get(scope)`` folds to
    ``"vary.lhs."`` -- enough to check a required prefix.  None means
    nothing is known (an opaque parameter), which rules must treat as
    "cannot judge", never as a violation.
    """
    if depth > 8:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        if not expr.values:
            return None
        head = expr.values[0]
        if isinstance(head, ast.Constant) and \
                isinstance(head.value, str):
            return head.value
        if isinstance(head, ast.FormattedValue):
            return leading_literal(symbol, head.value, depth + 1)
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return leading_literal(symbol, expr.left, depth + 1)
    if isinstance(expr, ast.Name):
        for node in _body_nodes(symbol.node):
            if isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    node.targets[0].id == expr.id:
                return leading_literal(symbol, node.value, depth + 1)
    return None


def local_producer(symbol: FunctionSymbol,
                   name: str) -> Optional[ast.expr]:
    """The expression last assigned to local *name*, if any."""
    found: Optional[ast.expr] = None
    for node in _body_nodes(symbol.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == name:
            found = node.value
    return found


def is_stream_get(call: ast.Call) -> bool:
    """Whether *call* is ``<something streamish>.get(name)``."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "get"):
        return False
    receiver = _terminal_name(call.func.value)
    return receiver is not None and \
        _STREAM_RECEIVER_HINT in receiver.lower()


__all__ = [
    "ADHOC_RNG_CONSTRUCTORS",
    "DRAW_METHODS",
    "EffectMap",
    "FS_FSYNC",
    "FS_MKSTEMP",
    "FS_RENAME",
    "FS_WRITE",
    "FunctionEffects",
    "RNG_DRAW",
    "infer_effects",
    "is_stream_get",
    "leading_literal",
    "local_producer",
    "resolve_strict",
]
