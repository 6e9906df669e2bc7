"""OIHSA cost against |V|: per-edge booking, routing and validation time.

OIHSA books every cross-processor edge by optimal insertion: on each route
link it walks the slot queue from tail to head, accumulating the deferral
room of formula (2), until no gap nearer the head can be feasible.  It
routes the edge by a Dijkstra search whose every relaxation probes one link
queue.  Queues grow with the number of edges already booked, so this is
where OIHSA's cost per edge can grow with |V|.  Booking is timed inside
``schedule_edge_optimal`` and routing inside the fused indexed Dijkstra
search; the sizes, instances and report are those of ``linkscaling.py``.
Writes ``BENCH_oihsa_scaling.json``.
"""

import pytest
from linkscaling import SIZES, measure, write_report

from repro.core import oihsa

_report: dict[str, dict] = {}


@pytest.mark.parametrize("n_tasks", SIZES)
def test_oihsa_scaling(monkeypatch, n_tasks):
    _report[f"oihsa_v{n_tasks:04d}"] = measure(
        monkeypatch,
        "oihsa",
        n_tasks,
        book=(oihsa, "schedule_edge_optimal"),
        route=(oihsa, "_dijkstra_indexed"),
    )


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's runs, dump the per-size report."""
    yield
    write_report("oihsa", _report)
