"""Batched array-native candidate scoring vs one-by-one full re-simulation.

The search-scheduler bench times whole searches; this module isolates the
evaluation kernel itself: scoring one fixed candidate *population* (a BA
seed plus deterministic mutations, the shape a genetic generation or
annealing neighborhood produces) through

- ``batch_array``: one :meth:`repro.core.batch.BatchMappingEvaluator.evaluate_batch`
  call — candidates sorted into prefix-trie order, whole batch forked from
  shared column checkpoints, and
- ``full_sequential``: the retained reference, one
  :func:`repro.core.mapping.simulate_mapping` per candidate in caller order.

Both paths must produce the **bit-identical score list** — asserted here
per element and digested into ``scores_checksum``.  A fresh evaluator is
built per timed round so the batch path never serves a score from its
identical-candidate cache.

The session writes ``BENCH_batch_eval.json`` to the working directory; CI
compares it against the committed baseline with
``benchmarks/compare_scheduler_cost.py`` (the report shares its layout) and
gates on the checksum.  The speedup floor asserted below is deliberately
far under the locally measured ratio — CI runners are noisy, and the floor
only exists to catch the kernel silently degenerating to per-candidate
full work.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.core.ba import BAScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.mapping import simulate_mapping
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload

#: candidates per population — one genetic generation's worth, times four
POPULATION = 64
#: timed rounds per path; the report keeps the fastest (min-of-N)
ROUNDS = 5
#: CI gate: the batch kernel must stay comfortably ahead of full re-simulation
SPEEDUP_FLOOR = 1.2

_report: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    config = ExperimentConfig.default()
    return paper_workload(config, ccr=2.0, n_procs=8, rng=777)


@pytest.fixture(scope="module")
def population(workload):
    """BA's mapping plus deterministic point mutations of it."""
    graph, net = workload.graph, workload.net
    seed_schedule = BAScheduler().schedule(graph, net)
    seed = {tid: pl.processor for tid, pl in seed_schedule.placements.items()}
    tasks = sorted(seed)
    procs = sorted(p.vid for p in net.processors())
    gen = np.random.default_rng(123)
    candidates = [dict(seed)]
    while len(candidates) < POPULATION:
        cand = dict(seed)
        # 1-4 point mutations: the move sizes annealing/genetic actually make.
        for _ in range(int(gen.integers(1, 5))):
            tid = tasks[int(gen.integers(0, len(tasks)))]
            cand[tid] = procs[int(gen.integers(0, len(procs)))]
        candidates.append(cand)
    return candidates


def _time_batch_array(graph, net, candidates) -> tuple[float, list[float]]:
    best = float("inf")
    scores: list[float] = []
    for _ in range(ROUNDS):
        evaluator = BatchMappingEvaluator(graph, net)
        t0 = perf_counter()
        scores = evaluator.evaluate_batch(candidates)
        best = min(best, perf_counter() - t0)
    return best, scores


def _time_full_sequential(graph, net, candidates) -> tuple[float, list[float]]:
    best = float("inf")
    scores: list[float] = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        scores = [simulate_mapping(graph, net, c).makespan for c in candidates]
        best = min(best, perf_counter() - t0)
    return best, scores


def scores_checksum(scores: list[float]) -> str:
    """Digest of the whole score list — order-sensitive, repr-exact."""
    return hashlib.sha256("\n".join(repr(s) for s in scores).encode()).hexdigest()


def makespan_checksum(report: dict[str, dict]) -> str:
    """Same digest as ``bench_scheduler_cost.makespan_checksum``."""
    lines = sorted(f"{algo}={report[algo]['makespan']!r}" for algo in report)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_batch_eval_speedup(workload, population):
    graph, net = workload.graph, workload.net
    array_wall, array_scores = _time_batch_array(graph, net, population)
    full_wall, full_scores = _time_full_sequential(graph, net, population)

    # The core claim: the kernel buys speed, never different schedules.
    assert array_scores == full_scores
    speedup = full_wall / array_wall if array_wall else 0.0
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch kernel only {speedup:.2f}x vs full re-simulation "
        f"(floor {SPEEDUP_FLOOR}x) — did the hot loop regress?"
    )

    digest = scores_checksum(array_scores)
    # "makespan" per series keeps the report readable by
    # compare_scheduler_cost.py; the population's best score plays the role.
    _report["batch_array"] = {
        "wall_s": array_wall,
        "makespan": min(array_scores),
        "scores_checksum": digest,
        "speedup_vs_full": speedup,
    }
    _report["full_sequential"] = {
        "wall_s": full_wall,
        "makespan": min(full_scores),
        "scores_checksum": digest,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's benchmark, dump the comparison report."""
    yield
    if not _report:
        return
    out = Path("BENCH_batch_eval.json")
    doc = {
        "algorithms": _report,
        "makespan_checksum": makespan_checksum(_report),
        "population": POPULATION,
        "rounds": ROUNDS,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"\nwrote batch-eval comparison to {out.resolve()}")
