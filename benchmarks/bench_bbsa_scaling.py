"""BBSA cost against |V|: per-edge booking, routing and validation time.

The fluid link model books every cross-processor edge by greedy forwarding
over each route link's piecewise-constant usage profile, and routes it by a
Dijkstra search whose every relaxation probes one profile.  Profiles grow
with the number of edges already booked, so this is where BBSA's cost per
edge can grow with |V|.  This module schedules one homogeneous CCR-2
instance per size |V| in ``SIZES`` on a 128-processor random WAN (the
paper's topology) with ``repro.obs`` off, and records per size:

- ``wall_s`` — the ``schedule()`` call;
- ``book_us_per_edge`` / ``book_us_per_link`` — time inside
  ``BandwidthLinkState.schedule_edge`` per routed edge and per link booked;
- ``route_s`` — time inside the fused fluid Dijkstra search;
- ``validate_s`` — ``validate_schedule`` on the result;
- ``makespan``, and a ``makespan_checksum`` over all sizes.

Booking and routing are timed by wrapping the two entry points for the
run; the wrappers cost well under a microsecond per call.  The session
writes ``BENCH_bbsa_scaling.json`` to the working directory; CI compares it
against the committed copy with ``benchmarks/compare_scheduler_cost.py``
(same layout), so a makespan drift at any size fails the build.  Times are
reported, never gated.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.core import SCHEDULERS, bbsa
from repro.core.validate import validate_schedule
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload
from repro.linksched.bandwidth import BandwidthLinkState

SIZES = (100, 200, 400, 800)
#: The fixed instances: size ``n`` uses generator seed ``[PARAMS["seed"], n]``.
PARAMS = {"ccr": 2.0, "n_procs": 128, "topology": "random_wan", "seed": 7}

_report: dict[str, dict] = {}


def _workload(n_tasks: int):
    config = ExperimentConfig(task_range=(n_tasks, n_tasks), topology=PARAMS["topology"])
    rng = np.random.default_rng([PARAMS["seed"], n_tasks])
    return paper_workload(config, PARAMS["ccr"], PARAMS["n_procs"], rng)


def makespan_checksum(report: dict[str, dict]) -> str:
    """Digest of every size's makespan, repr-exact and order-fixed."""
    lines = [f"{key}={report[key]['makespan']!r}" for key in sorted(report)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("n_tasks", SIZES)
def test_bbsa_scaling(monkeypatch, n_tasks):
    inst = _workload(n_tasks)
    spent = {"book": 0.0, "route": 0.0}
    counts = {"edges": 0, "links": 0}
    book, route = BandwidthLinkState.schedule_edge, bbsa._dijkstra_fluid

    def timed_book(self, edge, hops, *args, **kwargs):
        t0 = perf_counter()
        try:
            return book(self, edge, hops, *args, **kwargs)
        finally:
            spent["book"] += perf_counter() - t0
            if hops:
                counts["edges"] += 1
                counts["links"] += len(hops)

    def timed_route(*args, **kwargs):
        t0 = perf_counter()
        try:
            return route(*args, **kwargs)
        finally:
            spent["route"] += perf_counter() - t0

    monkeypatch.setattr(BandwidthLinkState, "schedule_edge", timed_book)
    monkeypatch.setattr(bbsa, "_dijkstra_fluid", timed_route)
    t0 = perf_counter()
    schedule = SCHEDULERS["bbsa"]().schedule(inst.graph, inst.net)
    wall = perf_counter() - t0
    t0 = perf_counter()
    validate_schedule(schedule)
    validate_s = perf_counter() - t0

    assert counts["edges"] > 0
    _report[f"bbsa_v{n_tasks:04d}"] = {
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


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's runs, dump the per-size report."""
    yield
    if not _report:
        return
    doc = {
        "params": {**PARAMS, "sizes": list(SIZES)},
        "algorithms": _report,
        "makespan_checksum": makespan_checksum(_report),
    }
    out = Path("BENCH_bbsa_scaling.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"\nwrote {out.resolve()}")
    for key, row in sorted(_report.items()):
        print(
            f"{key}: {row['edges']:6d} edges  wall {row['wall_s']:7.2f}s  "
            f"book {row['book_us_per_link']:6.1f}us/link "
            f"{row['book_us_per_edge']:7.1f}us/edge  route {row['route_s']:6.2f}s  "
            f"validate {row['validate_s']:5.2f}s"
        )
