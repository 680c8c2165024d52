"""Every name the benchmark's per-layer tracer patches must still exist.

``perfbench/tracer.py`` wraps the qualified names listed in its
``TARGETS``, ``HOOKS`` and ``_SPECIAL`` tables, and ``Tracer.install``
imports and patches all of them before a traced run.  Renaming or
deleting any one of them makes every ``--trace 1`` benchmark run raise,
so each entry is resolved here, the way ``Tracer._patch`` looks it up,
without installing the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
ENTRIES = sorted({(entry[0], entry[1]) for entry in
                  _TRACER.TARGETS + _TRACER.HOOKS + _TRACER._SPECIAL})


def test_tables_are_not_empty():
    assert len(ENTRIES) >= 50


@pytest.mark.parametrize("module_name, path", ENTRIES,
                         ids=[f"{m}:{p}" for m, p in ENTRIES])
def test_patched_name_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        assert callable(getattr(module, attr))
        return
    owner = getattr(module, owner_name)
    # The tracer swaps the class's own attribute, so an inherited one
    # does not count.
    assert attr in vars(owner), f"{owner.__qualname__} defines no {attr}"
