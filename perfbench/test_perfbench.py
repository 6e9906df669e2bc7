"""Tests of the benchmark's own code: span arithmetic, attribution, names.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import end_to_end  # noqa: E402
from tracing import SCHEDULE, SEARCH, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import PassResult  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_nested_spans():
    # parent [0, 10] > child [2, 5] > grandchild [3, 4]
    assert self_times([0.0, 2.0, 3.0], [10.0, 5.0, 4.0], [-1, 0, 1]) == [7.0, 2.0, 1.0]


def test_self_time_sibling_spans():
    # two disjoint children and one that touches the second
    starts = [0.0, 1.0, 4.0, 8.0]
    ends = [10.0, 3.0, 8.0, 9.0]
    assert self_times(starts, ends, [-1, 0, 0, 0]) == [3.0, 2.0, 4.0, 1.0]


def test_self_time_overlapping_and_clipped_children():
    # overlapping children are merged; a child reaching past its parent is clipped
    starts = [0.0, 1.0, 2.0, 9.0]
    ends = [10.0, 4.0, 5.0, 12.0]
    selfs = self_times(starts, ends, [-1, 0, 0, 0])
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_spans_take_the_algorithm_of_the_enclosing_schedule():
    tracer = Tracer()
    search = tracer.span(SEARCH, "annealing", 11, 0.0, 10.0)
    seed = tracer.span(SCHEDULE, "ba", 40, 0.5, 2.5, parent=search)
    tracer.span("route", "ba", 3, 1.0, 1.5, parent=seed)
    tracer.span("search.eval", "annealing", 1, 3.0, 4.0, parent=search)
    metrics = layer_metrics(tracer, 1)
    assert metrics["route.ba.calls"][0] == 1
    assert metrics["route.ba.hops"][0] == 3
    assert metrics["loop.ba.self_s"][0] == pytest.approx(1.5)
    assert metrics["search.anneal.seed_s"][0] == pytest.approx(2.0)
    assert metrics["search.anneal.eval_self_s"][0] == pytest.approx(1.0)
    assert metrics["search.genetic.eval_calls"][0] == 0


def test_wrappers_attribute_calls_and_restore_the_program():
    from repro.core import SCHEDULERS
    from repro.core.annealing import AnnealingScheduler
    from repro.core.base import ContentionScheduler
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.workloads import paper_workload

    inst = paper_workload(ExperimentConfig(task_range=(30, 30), heterogeneous=True), 2.0, 8, 3)
    plain = {a: SCHEDULERS[a]().schedule(inst.graph, inst.net).makespan
             for a in ("ba", "oihsa", "bbsa")}
    original = ContentionScheduler.__dict__["_mls_select_processor"]
    tracer = Tracer()
    tracer.install("full")
    try:
        traced = {a: SCHEDULERS[a]().schedule(inst.graph, inst.net).makespan
                  for a in ("ba", "oihsa", "bbsa")}
        AnnealingScheduler(iterations=3, rng=0).schedule(inst.graph, inst.net)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert ContentionScheduler.__dict__["_mls_select_processor"] is original
    by_name = {}
    for name, algo, parent in zip(tracer.names, tracer.algos, tracer.parents):
        by_name.setdefault(name, set()).add(algo)
        if name == SCHEDULE and parent >= 0:
            assert tracer.names[parent] == SEARCH and algo == "ba"
    assert by_name["route"] == {"ba", "oihsa", "bbsa"}
    assert by_name["book"] == {"ba", "oihsa", "bbsa"}
    assert by_name["proc_select"] == {"ba", "oihsa", "bbsa"}
    assert by_name["search.eval"] == {"annealing"}
    metrics = layer_metrics(tracer, 1)
    assert metrics["search.anneal.candidates"][0] == 4
    assert metrics["book.oihsa.links"][0] == metrics["route.oihsa.hops"][0]


def test_metric_names_match_the_benchmark_file():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(e2e) <= 16 and len(layers) <= 128
    for name in e2e + layers:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    res = PassResult(wall_s=2.0, unit_walls=[1.0, 1.0], makespans={"i/ba": 2.0, "i/oihsa": 1.0})
    assert list(end_to_end(0.5, [res])) == e2e
    assert sorted([*layer_metrics(Tracer(), 1), "trace.overhead_frac"]) == sorted(layers)
    mapped = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    assert sorted(mapped) == sorted(layers)
    for entry in mapped.values():
        assert set(entry["moves"]) <= set(e2e)
