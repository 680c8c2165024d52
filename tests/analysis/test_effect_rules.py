"""The EFF project rules and the effect-inference layer under them.

Fixture pairs pin each rule's positive/negative behaviour end to end
through :func:`lint_paths`; the unit tests below exercise the effect
layer directly -- direct extraction, the caller<-callee fixpoint,
substream-name folding and the strict (no-single-owner-fallback)
resolver.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.analysis.effect_rules import (
    all_effect_rules,
    effect_rule_ids,
)
from repro.analysis.engine import lint_paths, module_name_for
from repro.analysis.interproc.effects import (
    FS_FSYNC,
    FS_RENAME,
    FS_WRITE,
    RNG_DRAW,
    leading_literal,
)
from repro.analysis.interproc.project import build_project
from repro.analysis.rules import build_context

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture -> exact (rule, line) findings it must produce.
EXPECTED = {
    "eff001_bad.py": [("EFF001", 13)],
    "eff001_good.py": [],
    "eff002_bad.py": [("EFF002", 17)],
    "eff002_good.py": [],
    "eff006_bad.py": [("EFF006", 12), ("EFF006", 17),
                      ("EFF006", 26)],
    "eff006_good.py": [],
    "eff007_bad.py": [("EFF007", 17)],
    "eff007_good.py": [],
}


class TestFixturePairs:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_findings_are_exact(self, name):
        result = lint_paths([os.path.join(FIXTURES, name)])
        got = [(f.rule, f.line) for f in result.findings]
        assert got == EXPECTED[name]

    def test_eff002_message_prescribes_the_fix(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "eff002_bad.py")])
        (finding,) = result.findings
        assert "os.fsync" in finding.message
        assert "handle.flush()" in finding.message

    def test_eff006_messages_cover_all_three_shapes(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "eff006_bad.py")])
        messages = [f.message for f in result.findings]
        assert "outside the module's family" in messages[0]
        assert "fleet.*" in messages[0]
        assert "ad-hoc generator constructed in place" in messages[1]
        # The interprocedural shape blames the *caller* that handed
        # the ad-hoc generator in, naming the drawing callee.
        assert "passes an ad-hoc generator into" in messages[2]
        assert "jitter" in messages[2]

    def test_eff_rules_are_registered(self):
        # Ids are stable: the retired queue rules leave their gaps.
        assert effect_rule_ids() == ("EFF001", "EFF002", "EFF006",
                                     "EFF007")
        assert all(r.title and r.rationale
                   for r in all_effect_rules())

    def test_select_can_narrow_to_an_effect_rule(self):
        result = lint_paths([FIXTURES], select=["EFF007"])
        assert {(f.rule, os.path.basename(f.path))
                for f in result.findings} == \
            {("EFF007", "eff007_bad.py")}

    def test_ignore_can_drop_an_effect_rule(self):
        result = lint_paths([FIXTURES], ignore=["EFF006"])
        assert "EFF006" not in {f.rule for f in result.findings}


def _ctx(source: str, path: str):
    tree = ast.parse(source)
    return build_context(path, module_name_for(path), source, tree)


def _project(source: str, path: str = "src/demo/store.py"):
    return build_project([_ctx(source, path)])


ATOMIC_STORE = '''\
import os
import tempfile


def write_tmp(root, text):
    fd, tmp = tempfile.mkstemp(dir=root)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    return tmp


def publish(root, name, text):
    tmp = write_tmp(root, text)
    os.replace(tmp, os.path.join(root, name))
'''


class TestEffectLayer:
    def test_direct_effects_are_extracted(self):
        effects = _project(ATOMIC_STORE).effects
        writer = effects.per_function["demo.store.write_tmp"]
        assert FS_WRITE in writer.direct
        assert FS_FSYNC in writer.direct
        assert FS_RENAME not in writer.direct

    def test_fixpoint_folds_callee_effects_into_callers(self):
        effects = _project(ATOMIC_STORE).effects
        transitive = effects.of("demo.store.publish")
        # publish only renames directly; the write and fsync arrive
        # through write_tmp via the caller<-callee fixpoint.
        assert {FS_WRITE, FS_FSYNC, FS_RENAME} <= transitive

    def test_unknown_qname_has_no_effects(self):
        effects = _project(ATOMIC_STORE).effects
        assert effects.of("demo.store.missing") == set()
        assert effects.of(None) == set()

    def test_rng_draw_is_an_effect(self):
        source = ("def noise(rng):\n"
                  "    return rng.normal()\n")
        effects = _project(source, "src/demo/noise.py").effects
        assert RNG_DRAW in effects.of("demo.noise.noise")

    def test_strict_resolver_skips_single_owner_fallback(self):
        # Handle.close is the only 'close' method in the project;
        # the call graph's single-owner fallback would resolve
        # stream.close() to it and pollute caller effects with the
        # write.  The effect layer must leave the call unresolved.
        source = (
            "class Handle:\n"
            "    def close(self):\n"
            "        with open('x', 'w') as fh:\n"
            "            fh.write('bye')\n"
            "\n"
            "\n"
            "def shutdown(stream):\n"
            "    stream.close()\n")
        effects = _project(source, "src/demo/handles.py").effects
        fx = effects.per_function["demo.handles.shutdown"]
        assert fx.calls[0][1] is None
        assert FS_WRITE not in effects.of("demo.handles.shutdown")


class TestLeadingLiteral:
    def _symbol(self, source: str):
        project = _project(source, "src/demo/names.py")
        (qname,) = [q for q in project.effects.per_function
                    if not q.endswith("<module>")]
        return project.effects.per_function[qname].symbol

    def test_folds_fstring_head_and_local_assignment(self):
        symbol = self._symbol(
            "def scope(name):\n"
            "    label = f\"vary.lhs.{name}\"\n"
            "    return label\n")
        node = symbol.node.body[0].value
        assert leading_literal(symbol, node) == "vary.lhs."

    def test_folds_concatenation(self):
        symbol = self._symbol(
            "def scope(name):\n"
            "    return \"fleet.\" + name\n")
        node = symbol.node.body[0].value
        assert leading_literal(symbol, node) == "fleet."

    def test_opaque_parameter_is_unknown(self):
        symbol = self._symbol(
            "def scope(name):\n"
            "    return name\n")
        node = symbol.node.body[0].value
        assert leading_literal(symbol, node) is None
