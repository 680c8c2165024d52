"""EFF005's work list must name functions that exist.

EFF005 spots campaign work inside an open DB transaction by qualified
name (:data:`~repro.analysis.interproc.effects.WORK_QNAMES`).  A
renamed or deleted executor drops out of that list silently and the
rule stops seeing the work, so every entry has to resolve in the
project symbol table of ``src/``.
"""

import ast
import os

from repro.analysis.engine import discover_files, module_name_for
from repro.analysis.interproc.effects import WORK_QNAMES
from repro.analysis.interproc.symbols import build_symbol_table
from repro.analysis.rules import build_context

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, os.pardir, "src"))


def _src_symbols():
    contexts = []
    for path in discover_files([SRC]):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        contexts.append(build_context(path, module_name_for(path), source,
                                      ast.parse(source, filename=path)))
    return build_symbol_table(contexts)


def test_every_work_qname_resolves_in_src():
    functions = _src_symbols().functions
    unresolved = [qname for qname in WORK_QNAMES
                  if qname not in functions]
    assert not unresolved, (
        f"WORK_QNAMES names functions that do not exist in src/: "
        f"{unresolved}; point EFF005 at the renamed executors")


def test_resolution_is_not_vacuous():
    functions = _src_symbols().functions
    # Module functions and methods both index under their qnames ...
    assert "repro.core.campaign.execute_run" in functions
    assert "repro.core.artifacts.ArtifactStore.put" in functions
    # ... and a name that no longer exists does not.
    assert "repro.core.campaign._execute_run" not in functions
