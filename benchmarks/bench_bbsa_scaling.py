"""BBSA cost against |V|: per-edge booking, routing and validation time.

The fluid link model books every cross-processor edge by greedy forwarding
over each route link's piecewise-constant usage profile, and routes it by a
Dijkstra search whose every relaxation probes one profile.  Profiles grow
with the number of edges already booked, so this is where BBSA's cost per
edge can grow with |V|.  Booking is timed inside
``BandwidthLinkState.schedule_edge`` and routing inside the fused fluid
Dijkstra search; the sizes, instances and report are those of
``linkscaling.py``.  Writes ``BENCH_bbsa_scaling.json``.
"""

import pytest
from linkscaling import SIZES, measure, write_report

from repro.core import bbsa
from repro.linksched.bandwidth import BandwidthLinkState

_report: dict[str, dict] = {}


@pytest.mark.parametrize("n_tasks", SIZES)
def test_bbsa_scaling(monkeypatch, n_tasks):
    _report[f"bbsa_v{n_tasks:04d}"] = measure(
        monkeypatch,
        "bbsa",
        n_tasks,
        book=(BandwidthLinkState, "schedule_edge"),
        route=(bbsa, "_dijkstra_fluid"),
    )


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's runs, dump the per-size report."""
    yield
    write_report("bbsa", _report)
