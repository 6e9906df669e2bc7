"""Search-scheduler cost: array-batched vs full re-simulation.

``bench_scheduler_cost`` times every algorithm once; this module zooms in on
the two mapping-search schedulers (simulated annealing, genetic search),
whose candidate streams are exactly what the prefix-reusing evaluator
accelerates.  Each scheduler is timed twice on a fixed workload:

- ``array`` (the headline, scheduler default): the batched array-native
  evaluator of :mod:`repro.core.batch` on flat columns,
- ``full``: one complete ``simulate_mapping`` per candidate (the naive
  reference).

Both runs must produce **bit-identical makespans**: the speedup is never
allowed to buy a different schedule.

As in ``bench_scheduler_cost``, the timed benchmark runs with observability
disabled, and a separate instrumented pass collects the decision counters —
``mapping.prefix_hits`` / ``mapping.suffix_tasks_resimulated`` /
``mapping.batch_evaluations`` / ``mapping.identical_skips`` /
``routing.table_hits`` — from which prefix/route-table hit rates are
derived.  The session writes ``BENCH_search_schedulers.json`` to the working
directory; CI compares it against the committed baseline with
``benchmarks/compare_scheduler_cost.py`` (the report shares its layout), so
any makespan drift fails the build.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import pytest

from repro import obs
from repro.core import SCHEDULERS
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload

ALGOS = ("annealing", "genetic")

#: evaluation mode -> scheduler kwargs.
MODES = {
    "array": {"incremental": True},
    "full": {"incremental": False},
}

_report: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    # Smaller than bench_scheduler_cost's 16-processor instance: the full
    # (non-incremental) runs are timed too, and CI runs this module in the
    # perf-smoke job.
    config = ExperimentConfig.default()
    return paper_workload(config, ccr=2.0, n_procs=8, rng=777)


def _instrumented_run(algo: str, graph, net, mode: str) -> dict:
    """One instrumented schedule() call: wall time + decision counters."""
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        t0 = perf_counter()
        schedule = SCHEDULERS[algo](**MODES[mode]).schedule(graph, net)
        wall = perf_counter() - t0
        assert schedule.makespan > 0
        counters = obs.METRICS.snapshot()["counters"]
    finally:
        obs.disable()
    return {"wall_s": wall, "makespan": schedule.makespan, "counters": counters}


def _hit_rates(counters: dict) -> dict:
    """Derived cache effectiveness figures for the report."""
    evals = counters.get("mapping.evaluations", 0)
    hits = counters.get("mapping.prefix_hits", 0)
    table_hits = counters.get("routing.table_hits", 0)
    bfs = counters.get("routing.bfs_routes", 0)
    batches = counters.get("mapping.batch_evaluations", 0)
    return {
        "prefix_hit_rate": hits / evals if evals else 0.0,
        "mean_suffix_tasks": (
            counters.get("mapping.suffix_tasks_resimulated", 0) / evals
            if evals
            else 0.0
        ),
        "route_table_hit_rate": (
            table_hits / (table_hits + bfs) if table_hits + bfs else 0.0
        ),
        "mean_batch_size": (
            counters.get("mapping.batch_candidates", 0) / batches if batches else 0.0
        ),
        "identical_skips": counters.get("mapping.identical_skips", 0),
    }


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("mode", list(MODES), ids=list(MODES))
def test_search_scheduler_runtime(benchmark, workload, algo, mode):
    scheduler_cls = SCHEDULERS[algo]
    kwargs = MODES[mode]
    result = benchmark(
        lambda: scheduler_cls(**kwargs).schedule(workload.graph, workload.net)
    )
    assert result.makespan > 0
    run = _instrumented_run(algo, workload.graph, workload.net, mode)
    entry = _report.setdefault(algo, {})
    if mode == "array":
        # The headline series: after the first candidate, evaluations reuse
        # a simulated prefix, and the genetic search scores whole
        # generations as batches.
        assert run["counters"].get("mapping.prefix_hits", 0) > 0
        if algo == "genetic":
            assert run["counters"].get("mapping.batch_evaluations", 0) > 0
        entry.update({**run, **_hit_rates(run["counters"])})
    else:
        entry[mode] = {"wall_s": run["wall_s"], "makespan": run["makespan"]}


def makespan_checksum(report: dict[str, dict]) -> str:
    """Same digest as ``bench_scheduler_cost.makespan_checksum``.

    (Duplicated rather than imported — ``benchmarks`` is not a package.)
    """
    lines = sorted(f"{algo}={report[algo]['makespan']!r}" for algo in report)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _finalize(report: dict[str, dict]) -> dict:
    for algo, entry in report.items():
        full = entry.get("full")
        if full is None:
            continue
        # Bit-identity across the evaluation paths is the bench's core
        # claim: fail loudly, don't just record drift.
        assert full["makespan"] == entry["makespan"], (
            f"{algo}: array makespan {entry['makespan']!r} != "
            f"full {full['makespan']!r}"
        )
        entry["speedup_vs_full"] = (
            full["wall_s"] / entry["wall_s"] if entry["wall_s"] else 0.0
        )
        # Kept under its historical name: the full-path cost of the
        # default evaluator.
        entry["incremental_speedup"] = entry["speedup_vs_full"]
    return {
        "algorithms": report,
        "makespan_checksum": makespan_checksum(report),
    }


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's benchmarks, dump the instrumented comparison."""
    yield
    if not _report:
        return
    out = Path("BENCH_search_schedulers.json")
    out.write_text(json.dumps(_finalize(_report), indent=1, sort_keys=True))
    print(f"\nwrote search-scheduler cost comparison to {out.resolve()}")
