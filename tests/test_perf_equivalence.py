"""Differential suite: the optimized hot paths vs the retained naive reference.

The hot-path overhaul (indexed queues, undo-log transactions, pruned/inlined
routing, bounded optimal insertion) claims *bit-identical* behavior.  This module
proves it by driving both implementations — the optimized substrate and the
seed algorithms kept in :mod:`tests.naive_reference` — through identical
inputs and comparing results exactly:

1. ``find_gap_indexed`` vs the linear ``find_gap`` scan on random queues,
2. undo-log vs copy-on-write transactions across random
   begin/insert/replace_range/commit/rollback sequences,
3. whole schedulers (ba / oihsa / bbsa / packet-ba, both comm models) on
   Hypothesis-generated workloads: same makespan, per-task placements, link
   slot lists, edge arrivals, and ScheduleStats counters (modulo the
   pruned search's ``routing.probe_cutoffs``), with the naive reference
   monkeypatched in (OIHSA's reference runs the full optimal-insertion scan,
   so its ``optimal.gap_rejections`` may only be larger),
4. obs-off runs change nothing observable and leave the metrics registry
   untouched, and obs on runs the same functions the same number of times.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.ba as ba_mod
import repro.core.bbsa as bbsa_mod
import repro.core.oihsa as oihsa_mod
import repro.core.packetba as packetba_mod
import repro.linksched.optimal_insertion as optimal_mod
import repro.network.routing as routing_mod
from repro import obs
from repro.core import SCHEDULERS
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.slots import TimeSlot, find_gap, find_gap_indexed
from repro.linksched.state import LinkScheduleState
from repro.network.builders import (
    fully_connected,
    linear_array,
    random_wan,
    switched_cluster,
)
from repro.network.routing import bfs_route
from repro.obs import OBS
from repro.taskgraph.generators import random_layered_dag
from tests.naive_reference import (
    NaiveLinkScheduleState,
    naive_bfs_route,
    naive_commit_optimal,
    naive_dijkstra_fluid,
    naive_dijkstra_indexed,
    naive_probe_optimal,
)

# Differential checks are exact (==), never approximate: the acceptance bar
# is bit-identical behavior, so any drift must fail loudly.

FAST = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SCHED = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

times = st.floats(min_value=0.0, max_value=50.0)
durations = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def slot_queues(draw) -> list[TimeSlot]:
    """Sorted, pairwise-disjoint queues built from (gap, duration) pairs."""
    pairs = draw(st.lists(st.tuples(times, durations), max_size=12))
    t = 0.0
    slots: list[TimeSlot] = []
    for i, (gap, dur) in enumerate(pairs):
        start = t + gap
        slots.append(TimeSlot((i, 1000 + i), start, start + dur))
        t = start + dur
    return slots


class TestFindGapDifferential:
    @FAST
    @given(slots=slot_queues(), duration=durations, est=times, min_finish=times)
    def test_indexed_matches_linear(self, slots, duration, est, min_finish):
        starts = [s.start for s in slots]
        finishes = [s.finish for s in slots]
        assert find_gap_indexed(
            starts, finishes, duration, est, min_finish
        ) == find_gap(slots, duration, est, min_finish)

    @FAST
    @given(slots=slot_queues(), duration=durations, est=times, min_finish=times)
    def test_state_find_gap_matches_linear(self, slots, duration, est, min_finish):
        state = LinkScheduleState()
        if slots:
            state.replace_range(7, 0, 0, slots)
        assert state.find_gap(7, duration, est, min_finish) == find_gap(
            slots, duration, est, min_finish
        )


# ---------------------------------------------------------------------------
# Transactions: undo log vs copy-on-write.
# ---------------------------------------------------------------------------

_TXN_NETS = [fully_connected(3, rng=3), switched_cluster(4, rng=5)]
_TXN_PROCS = [sorted(v.vid for v in net.processors()) for net in _TXN_NETS]

booking_ops = st.lists(
    st.tuples(
        st.booleans(),  # optimal insertion (replace_range) vs basic (insert)
        st.integers(min_value=0, max_value=10**6),  # src/dst selector
        st.floats(min_value=0.0, max_value=30.0),  # cost
        times,  # ready time
        st.sampled_from(["none", "commit", "rollback"]),
    ),
    min_size=1,
    max_size=12,
)


def _assert_states_equal(real: LinkScheduleState, naive: NaiveLinkScheduleState):
    assert real.routes() == naive.routes()
    assert real.in_transaction == naive.in_transaction
    for lid in set(real._queues) | set(naive._queues):
        assert real.slots(lid) == naive.slots(lid), f"link {lid} queues differ"
        r_slots, r_starts, r_finishes = real.queue_arrays(lid)
        assert r_starts == [s.start for s in r_slots]
        assert r_finishes == [s.finish for s in r_slots]
        for s in r_slots:
            assert real.slot_of(s.edge, lid) == naive.slot_of(s.edge, lid)
    for edge, route in real.routes().items():
        for lid in route:
            assert real.next_link_of(edge, lid) == naive.next_link_of(edge, lid)


class TestTransactionDifferential:
    @FAST
    @given(
        ops=booking_ops,
        net_idx=st.integers(0, len(_TXN_NETS) - 1),
        comm=st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD]),
    )
    def test_undo_log_matches_copy_on_write(self, ops, net_idx, comm):
        net = _TXN_NETS[net_idx]
        procs = _TXN_PROCS[net_idx]
        n = len(procs)
        real = LinkScheduleState()
        naive = NaiveLinkScheduleState()
        for i, (use_optimal, sel, cost, ready, txn) in enumerate(ops):
            src = procs[sel % n]
            dst = procs[(sel // n) % n]
            if dst == src:
                dst = procs[(procs.index(src) + 1) % n]
            route = bfs_route(net, src, dst)
            edge = (i, 1000 + i)
            book = schedule_edge_optimal if use_optimal else schedule_edge_basic
            if txn != "none":
                real.begin()
                naive.begin()
            a_real = book(real, edge, route, cost, ready, comm)
            a_naive = book(naive, edge, route, cost, ready, comm)
            assert a_real == a_naive
            if txn == "commit":
                real.commit()
                naive.commit()
            elif txn == "rollback":
                real.rollback()
                naive.rollback()
            _assert_states_equal(real, naive)


# ---------------------------------------------------------------------------
# Whole schedulers vs the naive reference.
# ---------------------------------------------------------------------------

graphs = st.builds(
    lambda n, seed, density: random_layered_dag(n, rng=seed, density=density),
    n=st.integers(2, 18),
    seed=st.integers(0, 10_000),
    density=st.floats(0.0, 0.5),
)

topologies = st.one_of(
    st.builds(lambda n, s: fully_connected(n, rng=s), st.integers(2, 5), st.integers(0, 99)),
    st.builds(lambda n, s: switched_cluster(n, rng=s), st.integers(2, 6), st.integers(0, 99)),
    st.builds(lambda n, s: linear_array(n, rng=s), st.integers(2, 5), st.integers(0, 99)),
    st.builds(
        lambda n, s: random_wan(n, rng=s, proc_speed=(1, 10), link_speed=(1, 10)),
        st.integers(2, 8),
        st.integers(0, 99),
    ),
)

#: counters only the pruned searches keep — the only allowed difference
#: between the optimized and reference runs
_NEW_COUNTERS = {"routing.probe_cutoffs"}

# (scheduler name, optimized kwargs, naive kwargs, [(module, attr, naive impl)])
_CASES = [
    (
        "ba",
        {},
        {},
        [
            (ba_mod, "LinkScheduleState", NaiveLinkScheduleState),
            (ba_mod, "bfs_route", naive_bfs_route),
        ],
    ),
    (
        "oihsa",
        {},
        {},
        [
            (oihsa_mod, "LinkScheduleState", NaiveLinkScheduleState),
            (oihsa_mod, "_dijkstra_indexed", naive_dijkstra_indexed),
            (oihsa_mod, "bfs_route", naive_bfs_route),
            # The full tail-to-head scan and whole-suffix commit.
            (optimal_mod, "probe_optimal", naive_probe_optimal),
            (optimal_mod, "commit_optimal", naive_commit_optimal),
        ],
    ),
    (
        "bbsa",
        {},
        {},
        [
            (bbsa_mod, "_dijkstra_fluid", naive_dijkstra_fluid),
            (bbsa_mod, "bfs_route", naive_bfs_route),
        ],
    ),
    ("packet-ba", {}, {}, [(packetba_mod, "bfs_route", naive_bfs_route)]),
]

#: The bounded optimal-insertion scan stops before the head of the queue, so
#: it examines (and rejects) at most as many gaps as the full reference scan.
_SCAN_BOUNDED_COUNTERS = ("optimal.gap_rejections",)


def _comm_kwargs(name: str, comm) -> dict:
    return {} if name == "packet-ba" else {"comm": comm}


def _filtered_counters(stats) -> dict:
    counters = {
        k: v
        for k, v in stats.metrics.get("counters", {}).items()
        if k not in _NEW_COUNTERS
    }
    # The topology route table turns repeat BFS calls into table hits; the
    # naive reference recomputes every call.  Folding hits back into
    # ``bfs_routes`` recovers the invocation count, which must match exactly.
    hits = counters.pop("routing.table_hits", 0)
    if hits:
        counters["routing.bfs_routes"] = counters.get("routing.bfs_routes", 0) + hits
    return counters


def _link_slot_lists(schedule) -> dict:
    state = getattr(schedule, "link_state", None)
    if state is None:
        state = getattr(schedule, "packet_state", None)
    if state is None:  # bbsa's fluid model has no slot queues
        return {}
    return {lid: list(q) for lid, q in
            ((lid, state.slots(lid)) for lid in state.used_links())}


@pytest.mark.parametrize(
    "name,comm",
    [
        ("ba", CUT_THROUGH),
        ("ba", STORE_AND_FORWARD),
        ("oihsa", CUT_THROUGH),
        ("oihsa", STORE_AND_FORWARD),
        ("bbsa", CUT_THROUGH),
        ("bbsa", STORE_AND_FORWARD),
        ("packet-ba", CUT_THROUGH),
    ],
)
class TestSchedulerDifferential:
    """7 cases x 15 examples = 105 generated instances, each run three ways."""

    @SCHED
    @given(graph=graphs, net=topologies)
    def test_optimized_matches_naive_reference(self, name, comm, graph, net):
        case = next(c for c in _CASES if c[0] == name)
        _, opt_kwargs, naive_kwargs, patches = case
        cls = SCHEDULERS[name]
        comm_kw = _comm_kwargs(name, comm)

        # 1. Optimized, obs off.
        obs.disable()
        fast = cls(**opt_kwargs, **comm_kw).schedule(graph, net)

        # 2. Optimized, obs on: the same code, flushing its counts.
        obs.enable(obs.NullSink())
        obs.reset()
        try:
            instrumented = cls(**opt_kwargs, **comm_kw).schedule(graph, net)

            # 3. Naive reference, obs on, seed algorithms monkeypatched in.
            saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
            try:
                for module, attr, impl in patches:
                    setattr(module, attr, impl)
                obs.reset()
                reference = cls(**naive_kwargs, **comm_kw).schedule(graph, net)
            finally:
                for module, attr, impl in saved:
                    setattr(module, attr, impl)
        finally:
            obs.disable()

        for other in (instrumented, reference):
            assert fast.makespan == other.makespan
            assert fast.placements == other.placements
            assert fast.edge_arrivals == other.edge_arrivals
            assert _link_slot_lists(fast) == _link_slot_lists(other)
        counters = _filtered_counters(instrumented.stats)
        expected = _filtered_counters(reference.stats)
        for key in _SCAN_BOUNDED_COUNTERS:
            assert counters.pop(key, 0) <= expected.pop(key, 0)
        assert counters == expected


# ---------------------------------------------------------------------------
# Obs-off paths must not touch the instruments at all.
# ---------------------------------------------------------------------------

class TestObsOffIsInert:
    def test_disabled_run_mutates_no_metrics_or_events(self, diamond4, net4):
        obs.disable()
        obs.METRICS.reset()
        obs.PROFILER.reset()
        mark = OBS.bus.mark()
        empty_metrics = obs.METRICS.snapshot()
        empty_timings = obs.PROFILER.snapshot()
        for name in ("ba", "oihsa", "bbsa", "packet-ba"):
            result = SCHEDULERS[name]().schedule(diamond4, net4)
            assert result.stats is None
        assert obs.METRICS.snapshot() == empty_metrics
        assert obs.METRICS._counters == {}  # not even zero-valued instruments
        assert obs.PROFILER.snapshot() == empty_timings
        assert OBS.bus.mark() == mark
        assert OBS.bus.since(mark) == []


class TestObsOnRunsTheSamePath:
    """Instrumentation observes the production path instead of swapping it."""

    _WRAPPED = [
        (oihsa_mod, "_dijkstra_indexed"),
        (bbsa_mod, "_dijkstra_fluid"),
        (optimal_mod, "probe_optimal"),
        (optimal_mod, "commit_optimal"),
        # Every binding of the generic search, so a call through either
        # scheduler module's import is counted too.
        (routing_mod, "dijkstra_route"),
        (oihsa_mod, "dijkstra_route"),
        (bbsa_mod, "dijkstra_route"),
    ]

    def _counted_run(self, monkeypatch, name, graph, net, observing):
        calls = {attr: 0 for _, attr in self._WRAPPED}
        for module, attr in self._WRAPPED:
            fn = getattr(module, attr)

            def counting(*args, _fn=fn, _key=attr, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)
        if observing:
            obs.enable(obs.NullSink())
            obs.reset()
        try:
            result = SCHEDULERS[name]().schedule(graph, net)
        finally:
            obs.disable()
            monkeypatch.undo()
        return result, calls

    @pytest.mark.parametrize("name", ["oihsa", "bbsa"])
    def test_obs_on_and_off_call_the_same_functions(self, monkeypatch, name):
        graph = random_layered_dag(40, rng=5, density=0.3)
        net = random_wan(8, rng=3, proc_speed=(1, 10), link_speed=(1, 10))
        off, off_calls = self._counted_run(monkeypatch, name, graph, net, False)
        on, on_calls = self._counted_run(monkeypatch, name, graph, net, True)
        assert off.makespan == on.makespan
        assert off.edge_arrivals == on.edge_arrivals
        assert off_calls == on_calls
        assert on_calls["dijkstra_route"] == 0
        search = "_dijkstra_indexed" if name == "oihsa" else "_dijkstra_fluid"
        assert on_calls[search] > 0
        if name == "oihsa":
            assert on_calls["probe_optimal"] == on_calls["commit_optimal"] > 0


# ---------------------------------------------------------------------------
# Topology adjacency cache.
# ---------------------------------------------------------------------------

class TestAdjacencyCache:
    def test_cache_matches_sorted_scan_and_invalidates(self):
        net = switched_cluster(4, rng=11)
        for v in net.vertices():
            assert net.sorted_out_links(v.vid) == sorted(
                net.out_links(v.vid), key=lambda lv: lv[0].lid
            )
        # Mutation must invalidate: add a link and re-check every vertex.
        procs = [v.vid for v in net.processors()]
        net.connect(procs[0], procs[1], speed=2.0)
        for v in net.vertices():
            assert net.sorted_out_links(v.vid) == sorted(
                net.out_links(v.vid), key=lambda lv: lv[0].lid
            )
