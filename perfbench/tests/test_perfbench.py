"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test shrinks the input pools to one or two items, so a full pass
takes about two minutes, most of it the two detlint passes.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import PINNED, WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def shrink(monkeypatch, name, items):
    monkeypatch.setattr(WORKLOADS[name], "pool_size", items)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_minimal_run_emits_exactly_the_declared_metrics(monkeypatch, name,
                                                        trace):
    shrink(monkeypatch, name, 1)
    result, _, _ = bench.benchmark(name, seed=1, seconds=0,
                                   trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == declared(section)
    json.dumps(result, allow_nan=False)


def test_tracer_is_fully_removed_after_a_traced_run(monkeypatch):
    from repro.sim.kernel import Simulator
    from repro.vehicle import line_follow
    from repro.vision.canny import canny

    schedule_at = Simulator.__dict__["schedule_at"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert line_follow.canny is not canny
        assert Simulator.__dict__["schedule_at"] is not schedule_at
        assert tracer.leftovers()
        WORKLOADS["paper_brake"].run(1)
    finally:
        tracer.remove()
    assert tracer.leftovers() == []
    assert line_follow.canny is canny
    assert Simulator.__dict__["schedule_at"] is schedule_at
    assert tracer.counts["sim.events"] > 0


def test_failed_counts_an_injected_digest_mismatch(monkeypatch):
    shrink(monkeypatch, "paper_brake", 2)
    pinned = copy.deepcopy(PINNED)
    pinned["paper_brake"][2] = "0" * 64
    result, details, _ = bench.benchmark("paper_brake", seed=1, seconds=0,
                                         trace=False, pinned=pinned)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "item 2" in details["failures"][0]


def test_layer_map_charges_unknown_code_to_other():
    assert tracing.layer_of_module("repro.net.mac") == "net.mac_s"
    assert tracing.layer_of_module("repro.net.frame") == "net.medium_s"
    assert tracing.layer_of_module("numpy.core") == tracing.OTHER
    assert tracing.layer_of_module(None) == tracing.OTHER
