"""Shared harness of the link-booking scaling benches.

``bench_bbsa_scaling.py`` and ``bench_oihsa_scaling.py`` follow one
algorithm's cost as |V| grows.  Each schedules one homogeneous CCR-2
instance per size |V| in ``SIZES`` on a 128-processor random WAN (the
paper's topology) with ``repro.obs`` off, and records per size:

- ``wall_s`` — the ``schedule()`` call;
- ``book_us_per_edge`` / ``book_us_per_link`` — time inside the
  algorithm's booking entry point per routed edge and per link booked;
- ``route_s`` — time inside its fused Dijkstra search;
- ``validate_s`` — ``validate_schedule`` on the result;
- ``makespan``, and a ``makespan_checksum`` over all sizes.

Booking and routing are timed by wrapping the two entry points for the
run; the wrappers cost well under a microsecond per call.  Each bench
writes ``BENCH_<algorithm>_scaling.json`` to the working directory; CI
compares it against the committed copy with
``benchmarks/compare_scheduler_cost.py`` (same layout), so a makespan drift
at any size fails the build.  Times are reported, never gated.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import SCHEDULERS
from repro.core.validate import validate_schedule
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload

SIZES = (100, 200, 400, 800, 1000)
#: The fixed instances: size ``n`` uses generator seed ``[PARAMS["seed"], n]``.
PARAMS = {"ccr": 2.0, "n_procs": 128, "topology": "random_wan", "seed": 7}


def _workload(n_tasks: int):
    config = ExperimentConfig(task_range=(n_tasks, n_tasks), topology=PARAMS["topology"])
    rng = np.random.default_rng([PARAMS["seed"], n_tasks])
    return paper_workload(config, PARAMS["ccr"], PARAMS["n_procs"], rng)


def makespan_checksum(report: dict[str, dict]) -> str:
    """Digest of every size's makespan, repr-exact and order-fixed."""
    lines = [f"{key}={report[key]['makespan']!r}" for key in sorted(report)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def measure(monkeypatch, algorithm: str, n_tasks: int, book, route) -> dict:
    """Schedule the size-``n_tasks`` instance with ``algorithm``.

    ``book`` and ``route`` are ``(owner, attribute)`` pairs naming the
    booking entry point and the route search, patched with timing wrappers
    for the run.  Every booking call passes the route as its third
    positional argument; a call with an empty route books nothing and is not
    counted as a routed edge.
    """
    inst = _workload(n_tasks)
    spent = {"book": 0.0, "route": 0.0}
    counts = {"edges": 0, "links": 0}
    book_fn, route_fn = getattr(*book), getattr(*route)

    def timed_book(*args, **kwargs):
        t0 = perf_counter()
        try:
            return book_fn(*args, **kwargs)
        finally:
            spent["book"] += perf_counter() - t0
            hops = args[2]
            if hops:
                counts["edges"] += 1
                counts["links"] += len(hops)

    def timed_route(*args, **kwargs):
        t0 = perf_counter()
        try:
            return route_fn(*args, **kwargs)
        finally:
            spent["route"] += perf_counter() - t0

    monkeypatch.setattr(*book, timed_book)
    monkeypatch.setattr(*route, timed_route)
    t0 = perf_counter()
    schedule = SCHEDULERS[algorithm]().schedule(inst.graph, inst.net)
    wall = perf_counter() - t0
    t0 = perf_counter()
    validate_schedule(schedule)
    validate_s = perf_counter() - t0

    assert counts["edges"] > 0
    return {
        "tasks": inst.graph.num_tasks,
        "edges": inst.graph.num_edges,
        "routed_edges": counts["edges"],
        "links_booked": counts["links"],
        "wall_s": wall,
        "book_s": spent["book"],
        "book_us_per_edge": 1e6 * spent["book"] / counts["edges"],
        "book_us_per_link": 1e6 * spent["book"] / counts["links"],
        "route_s": spent["route"],
        "validate_s": validate_s,
        "makespan": schedule.makespan,
    }


def write_report(algorithm: str, report: dict[str, dict]) -> None:
    """Dump the per-size report to ``BENCH_<algorithm>_scaling.json``."""
    if not report:
        return
    doc = {
        "params": {**PARAMS, "sizes": list(SIZES)},
        "algorithms": report,
        "makespan_checksum": makespan_checksum(report),
    }
    out = Path(f"BENCH_{algorithm}_scaling.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"\nwrote {out.resolve()}")
    for key, row in sorted(report.items()):
        print(
            f"{key}: {row['edges']:6d} edges  wall {row['wall_s']:7.2f}s  "
            f"book {row['book_us_per_link']:6.1f}us/link "
            f"{row['book_us_per_edge']:7.1f}us/edge  route {row['route_s']:6.2f}s  "
            f"validate {row['validate_s']:5.2f}s"
        )
