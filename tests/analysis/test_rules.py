"""Per-rule fixture tests: every rule fires on its positive fixture
and stays silent on its negative one."""

from __future__ import annotations

import ast
import os

import pytest

from repro.analysis.engine import (
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.analysis.rules import (
    PoolBoundaryRule,
    build_context,
    resolve_target,
    rule_ids,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: rule id -> how many findings its positive fixture must produce.
EXPECTED_BAD = {
    "DET001": 5,
    "DET002": 3,
    "DET003": 3,
    "DET004": 1,
    "DET005": 2,
    "DET006": 1,
    "DET007": 4,
    "DET008": 2,
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def lint_fixture(name: str):
    return lint_paths([fixture_path(name)])


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_bad_fixture_fires_only_its_rule(self, rule_id):
        name = f"det{rule_id[3:]}_bad.py"
        result = lint_fixture(name)
        assert result.files_checked == 1
        assert result.findings, f"{name} produced no findings"
        assert {f.rule for f in result.findings} == {rule_id}
        assert len(result.findings) == EXPECTED_BAD[rule_id]

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_good_fixture_is_clean_under_every_rule(self, rule_id):
        name = f"det{rule_id[3:]}_good.py"
        result = lint_fixture(name)
        assert result.files_checked == 1
        assert result.findings == []

    def test_findings_are_sorted_and_carry_snippets(self):
        result = lint_fixture("det001_bad.py")
        keys = [f.sort_key() for f in result.findings]
        assert keys == sorted(keys)
        assert all(f.snippet for f in result.findings)
        assert all(f.line > 0 and f.column > 0
                   for f in result.findings)


class TestAllowlists:
    def test_det001_exempt_in_randomness_module(self):
        source = "import random\nVALUE = random.random()\n"
        in_factory = lint_source(
            source, "src/repro/sim/randomness.py")
        elsewhere = lint_source(source, "src/repro/net/phy.py")
        assert [f.rule for f in in_factory] == []
        assert [f.rule for f in elsewhere] == ["DET001"]

    def test_det002_fires_under_obs(self):
        # Observability measures sim time only: no module, the obs
        # package included, is exempt from the wall-clock rule.
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()\n")
        in_obs = lint_source(source, "src/repro/obs/metrics.py")
        elsewhere = lint_source(source, "src/repro/sim/kernel.py")
        assert [f.rule for f in in_obs] == ["DET002"]
        assert [f.rule for f in elsewhere] == ["DET002"]

    def test_fixture_paths_never_match_repro_allowlists(self):
        assert not module_name_for(
            fixture_path("det001_bad.py")).startswith("repro.")


class TestPoolBoundaryFrozen:
    RULE = PoolBoundaryRule()

    def _check(self, source: str, module: str):
        tree = ast.parse(source)
        ctx = build_context("x.py", module, source, tree)
        return list(self.RULE.check(ctx))

    def test_unfrozen_boundary_dataclass_flagged(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass\n"
                  "class Plan:\n"
                  "    name: str = ''\n")
        found = self._check(source, "repro.faults.plan")
        assert [f.rule for f in found] == ["DET008"]
        assert "frozen" in found[0].message

    def test_frozen_boundary_dataclass_clean(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass(frozen=True)\n"
                  "class Plan:\n"
                  "    name: str = ''\n")
        assert self._check(source, "repro.faults.plan") == []

    def test_non_boundary_module_not_frozen_checked(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass\n"
                  "class Row:\n"
                  "    name: str = ''\n")
        assert self._check(source, "repro.obs.metrics") == []


class TestEngineMechanics:
    def test_syntax_error_becomes_det000(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert [f.rule for f in findings] == ["DET000"]
        assert "syntax error" in findings[0].message

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="DET999"):
            lint_paths([fixture_path("det001_good.py")],
                       select=["DET999"])

    def test_select_narrows_to_one_rule(self):
        result = lint_paths([FIXTURES], select=["DET006"])
        assert {f.rule for f in result.findings} == {"DET006"}

    def test_ignore_drops_a_rule(self):
        result = lint_paths([FIXTURES], ignore=["DET001"])
        assert "DET001" not in {f.rule for f in result.findings}

    def test_directory_discovery_is_deterministic(self):
        first = lint_paths([FIXTURES])
        second = lint_paths([FIXTURES])
        assert [f.to_dict() for f in first.findings] == \
            [f.to_dict() for f in second.findings]
        assert first.files_checked == second.files_checked

    def test_module_name_for(self):
        assert module_name_for("src/repro/sim/kernel.py") == \
            "repro.sim.kernel"
        assert module_name_for("src/repro/obs/__init__.py") == \
            "repro.obs"
        assert module_name_for("tests/analysis/fixtures/x.py") == \
            "tests.analysis.fixtures.x"

    def test_resolve_target_follows_aliases(self):
        source = ("import numpy as np\n"
                  "from time import perf_counter\n"
                  "x = np.random.default_rng(1)\n"
                  "y = perf_counter()\n")
        tree = ast.parse(source)
        ctx = build_context("x.py", "x", source, tree)
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        targets = sorted(
            t for t in (resolve_target(ctx, call.func)
                        for call in calls) if t)
        assert targets == ["numpy.random.default_rng",
                           "time.perf_counter"]

    def test_rule_ids_are_the_eight_documented(self):
        assert rule_ids() == tuple(sorted(EXPECTED_BAD))
