"""The effect-discipline rule family (EFF001, EFF002, EFF006, EFF007).

A killed campaign resumes from the artifact store (ARCHITECTURE.md
§6), and cached runs stay bit-identical to fresh ones, only because
of conventions no runtime check sees: every durable write goes
through atomic temp+rename with an fsync before the rename, every
random draw flows from a *named* substream, and frozen specs stay
frozen once fingerprinted.  The EFF rules check those conventions
statically on top of the interprocedural effect layer
(:mod:`repro.analysis.interproc.effects`).  The ids are stable:
EFF003, EFF004, EFF005 and EFF008 checked the retired SQLite work
queue and are not reused.

========  ==========================================================
EFF001    durable-store write that does not flow through the atomic
          temp+``os.replace`` pattern (a crash leaves a truncated
          entry where a reader expects a verified one)
EFF002    rename into place without a transitive fsync: the rename
          is atomic but the *data* may still be in the page cache,
          so a power cut can publish an empty file under a valid
          name
EFF006    a random draw whose generator is not interprocedurally
          traceable to a named substream (``fleet.*``, ``vary.*``,
          ``faults.*``, ``tie_break.*``): the substream *name* is
          part of the seeded draw's identity
EFF007    ``object.__setattr__`` on a frozen spec outside
          ``__init__``/``__post_init__``: mutation after
          fingerprinting silently decouples content from key
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.interproc.effects import (
    ADHOC_RNG_CONSTRUCTORS,
    DRAW_METHODS,
    FS_FSYNC,
    FS_RENAME,
    FS_WRITE,
    FunctionEffects,
    is_stream_get,
    leading_literal,
    local_producer,
)
from repro.analysis.interproc.project import ProjectContext
from repro.analysis.rules import resolve_target
from repro.analysis.schedule_rules import ProjectRule

#: Modules holding durable-store state: writes here must be atomic
#: (EFF001) and synced before publication (EFF002).
_DURABLE_MODULES = ("repro.core.artifacts", "repro.analysis.baseline")

#: module prefix -> substream-name prefixes its draws must use.
_SUBSTREAM_SCOPES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.core.fleet", ("fleet.",)),
    ("repro.vary", ("vary.",)),
    ("repro.faults", ("faults.",)),
    ("repro.sim.kernel", ("tie_break.",)),
)

#: What fixtures (and any non-``repro`` tree) must use: any of the
#: named families.  Fixtures always face the strictest rule form.
_ALL_PREFIXES = ("fleet.", "vary.", "faults.", "tie_break.")

#: Constructors whose presence in-scope means a frozen-spec module.
_LIFECYCLE_METHODS = ("__init__", "__post_init__", "__new__",
                      "__setstate__")


def _module_in(module: str, prefixes: Tuple[str, ...]) -> bool:
    """Scope test: fixtures are always in, repro by prefix."""
    if not (module == "repro" or module.startswith("repro.")):
        return True
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def _scoped(project: ProjectContext, prefixes: Tuple[str, ...]
            ) -> Iterator[FunctionEffects]:
    """Per-function summaries of every in-scope function, sorted."""
    per_function = project.effects.per_function
    for qname in sorted(per_function):
        fx = per_function[qname]
        if _module_in(fx.symbol.module, prefixes):
            yield fx


class EffectRule(ProjectRule):
    """Base for the EFF family: anchors findings at effect sites."""

    def site(self, project: ProjectContext, fx: FunctionEffects,
             node: ast.AST, message: str) -> Finding:
        return self.finding(
            project, fx.symbol.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message)


class DurableWriteRule(EffectRule):
    """Durable writes must be atomic (temp file + rename)."""

    rule_id = "EFF001"
    title = "durable-store write outside the atomic rename pattern"
    rationale = (
        "A plain write into durable-store state can be interrupted "
        "by a crash, leaving a truncated file under the name readers "
        "trust.  Every durable write must flow through the temp+"
        "os.replace helper pattern (ArtifactStore.put, "
        "Baseline.save): write the temp file, fsync, rename into "
        "place.  Non-durable output (a report dumped for a human) is "
        "a one-line suppression with the reason written down.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _DURABLE_MODULES):
            if not fx.write_opens:
                continue
            if FS_RENAME in project.effects.of(fx.symbol.qname):
                continue
            for node in fx.write_opens:
                yield self.site(
                    project, fx, node,
                    f"{fx.symbol.qname} writes durable-store state "
                    f"without the atomic temp+os.replace pattern; a "
                    f"crash mid-write leaves a truncated entry "
                    f"(write a temp file, fsync, os.replace -- see "
                    f"ArtifactStore.put)")


class FsyncBeforeRenameRule(EffectRule):
    """Published renames need their data on disk first."""

    rule_id = "EFF002"
    title = "rename into the store without a preceding fsync"
    rationale = (
        "os.replace makes the *name* change atomic, not the data: "
        "without an fsync on the temp file a power cut can publish "
        "a zero-length or partial file under a valid store path, "
        "which integrity checking then misreads as a plain miss "
        "forever.  Flush and os.fsync the handle before renaming.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _DURABLE_MODULES):
            if not fx.renames:
                continue
            transitive = project.effects.of(fx.symbol.qname)
            if FS_WRITE not in transitive:
                continue  # a pure mover publishes nothing new
            if FS_FSYNC in transitive:
                continue
            for node in fx.renames:
                yield self.site(
                    project, fx, node,
                    f"{fx.symbol.qname} renames freshly written "
                    f"data into place without any fsync on the "
                    f"path; call handle.flush() + "
                    f"os.fsync(handle.fileno()) before the rename")


class SubstreamDisciplineRule(EffectRule):
    """Every draw must trace to a named substream."""

    rule_id = "EFF006"
    title = "random draw not traceable to a named substream"
    rationale = (
        "Substream *names* are part of the seeded draw's identity "
        "(RandomStreams.get hashes the name into the seed): a draw "
        "from an ad-hoc generator -- or from a substream outside "
        "the module's family prefix (fleet.*, vary.*, faults.*, "
        "tie_break.*) -- is bit-stable only by accident of call "
        "order.  Name the stream, scoped to its family, and pass "
        "the generator down from there.")

    def _required(self, module: str) -> Optional[Tuple[str, ...]]:
        if not (module == "repro" or module.startswith("repro.")):
            return _ALL_PREFIXES
        for prefix, required in _SUBSTREAM_SCOPES:
            if module == prefix or module.startswith(prefix + "."):
                return required
        return None

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        per_function = project.effects.per_function
        #: (drawing fx, draw node, positional index, param name)
        param_draws: List[Tuple[FunctionEffects, ast.Call, int,
                                str]] = []
        for qname in sorted(per_function):
            fx = per_function[qname]
            required = self._required(fx.symbol.module)
            if required is None:
                continue
            ctx = project.symbols.modules.get(fx.symbol.module)
            if ctx is None:
                continue
            for call, _target in fx.calls:
                if is_stream_get(call) and call.args:
                    name = leading_literal(fx.symbol, call.args[0])
                    if not name:
                        continue
                    if not any(name.startswith(p)
                               for p in required):
                        yield self.site(
                            project, fx, call,
                            f"substream name {name!r} in "
                            f"{fx.symbol.qname} is outside the "
                            f"module's family "
                            f"({', '.join(p + '*' for p in required)}"
                            f"): the name "
                            f"is part of the seeded draw identity, "
                            f"so scope it to its family")
                    continue
                if not (isinstance(call.func, ast.Attribute)
                        and call.func.attr in DRAW_METHODS
                        and isinstance(call.func.value, ast.Name)):
                    continue
                receiver = call.func.value.id
                producer = local_producer(fx.symbol, receiver)
                if producer is None:
                    index = _param_index(fx.symbol, receiver)
                    if index is not None:
                        param_draws.append(
                            (fx, call, index, receiver))
                    continue
                if _is_adhoc(ctx, producer):
                    yield self.site(
                        project, fx, call,
                        f"{fx.symbol.qname} draws from an ad-hoc "
                        f"generator constructed in place of a "
                        f"named substream; use streams.get("
                        f"'<family>.<purpose>') so the draw's "
                        f"identity is pinned by name")
        # Interprocedural half: a caller handing an ad-hoc generator
        # into a function that draws from the parameter.
        for fx, draw, index, param in param_draws:
            for caller_q in sorted(per_function):
                caller = per_function[caller_q]
                ctx = project.symbols.modules.get(
                    caller.symbol.module)
                if ctx is None:
                    continue
                for call, target in caller.calls:
                    if target != fx.symbol.qname:
                        continue
                    arg = _argument_for(call, index, param)
                    if arg is None:
                        continue
                    if isinstance(arg, ast.Name):
                        arg = local_producer(
                            caller.symbol, arg.id) or arg
                    if _is_adhoc(ctx, arg):
                        yield self.site(
                            project, caller, call,
                            f"{caller.symbol.qname} passes an "
                            f"ad-hoc generator into "
                            f"{fx.symbol.qname}, which draws from "
                            f"it (parameter {param!r}); hand it a "
                            f"named substream instead")


def _is_adhoc(ctx, expr: ast.expr) -> bool:
    """Whether *expr* constructs an anonymous generator."""
    return isinstance(expr, ast.Call) and \
        resolve_target(ctx, expr.func) in ADHOC_RNG_CONSTRUCTORS


def _param_index(symbol, name: str) -> Optional[int]:
    """Positional index of parameter *name*, self/cls excluded."""
    node = symbol.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    params = [arg.arg for arg in node.args.args]
    if symbol.cls is not None and params and \
            params[0] in ("self", "cls"):
        params = params[1:]
    try:
        return params.index(name)
    except ValueError:
        return None


def _argument_for(call: ast.Call, index: int,
                  param: str) -> Optional[ast.expr]:
    """The call argument bound to parameter (*index*, *param*)."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if len(call.args) > index:
        return call.args[index]
    return None


class FrozenMutationRule(EffectRule):
    """Frozen specs stay frozen once constructed."""

    rule_id = "EFF007"
    title = "frozen dataclass mutated after construction"
    rationale = (
        "object.__setattr__ outside __init__/__post_init__ rewrites "
        "a frozen spec *after* its fingerprint may have been taken, "
        "silently decoupling cache keys and coverage "
        "reports from the content they were computed over.  Build a "
        "new instance (dataclasses.replace) instead.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for qname in sorted(project.effects.per_function):
            fx = project.effects.per_function[qname]
            if fx.symbol.name in _LIFECYCLE_METHODS:
                continue
            for call, _target in fx.calls:
                func = call.func
                if isinstance(func, ast.Attribute) and \
                        func.attr == "__setattr__" and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id == "object":
                    yield self.site(
                        project, fx, call,
                        f"{fx.symbol.qname} mutates a frozen "
                        f"instance via object.__setattr__ outside "
                        f"construction; fingerprints taken earlier "
                        f"no longer describe it -- use "
                        f"dataclasses.replace to build a new spec")


_EFFECT_RULES: Tuple[ProjectRule, ...] = (
    DurableWriteRule(),
    FsyncBeforeRenameRule(),
    SubstreamDisciplineRule(),
    FrozenMutationRule(),
)


def all_effect_rules() -> Tuple[ProjectRule, ...]:
    """Every registered effect rule, in rule-id order."""
    return tuple(sorted(_EFFECT_RULES, key=lambda r: r.rule_id))


def effect_rule_ids() -> Tuple[str, ...]:
    """The registered effect rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_effect_rules())


__all__ = [
    "DurableWriteRule",
    "EffectRule",
    "FrozenMutationRule",
    "FsyncBeforeRenameRule",
    "SubstreamDisciplineRule",
    "all_effect_rules",
    "effect_rule_ids",
]
