"""Dead-end pruning in the contention-aware route searches.

OIHSA's ``_dijkstra_indexed`` and BBSA's ``_dijkstra_fluid`` never relax a
dead end (``NetworkTopology.dead_ends``) other than the destination.  The
``naive_dijkstra_*`` oracles in :mod:`tests.naive_reference` relax every
vertex.  On booked link states, with leaf processors at both ends, the two
must return the same route (link for link), and the pruned search's label
for the destination must equal the arrival the oracle's route gives when it
is walked hop by hop with the oracle's probe.  The pruned search may only
relax less.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.core.bbsa import _dijkstra_fluid
from repro.core.oihsa import _dijkstra_indexed
from repro.linksched.bandwidth import _FEPS, BandwidthLinkState
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.state import LinkScheduleState
from repro.network.builders import fat_tree, random_wan, switched_cluster, torus2d
from repro.network.fabrics import leaf_spine, torus_fabric
from repro.network.routing import bfs_route
from repro.obs import OBS
from tests.naive_reference import (
    linear_find_gap,
    naive_dijkstra_fluid,
    naive_dijkstra_indexed,
    naive_probe_step_finish,
)

PROPS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_SPEEDS = {"proc_speed": (1, 10), "link_speed": (1, 10)}

topologies = st.one_of(
    st.builds(
        lambda n, s: random_wan(n, rng=s, **_SPEEDS), st.integers(2, 40), st.integers(0, 99)
    ),
    st.builds(lambda n, s: switched_cluster(n, rng=s), st.integers(2, 8), st.integers(0, 99)),
    st.builds(
        lambda leaves, spines, hosts, s: leaf_spine(leaves, spines, hosts, rng=s, **_SPEEDS),
        st.integers(1, 4), st.integers(1, 3), st.integers(2, 4), st.integers(0, 99),
    ),
    st.builds(
        lambda n, per, s: fat_tree(n, per, rng=s, **_SPEEDS),
        st.integers(2, 16), st.integers(1, 4), st.integers(0, 99),
    ),
    st.builds(
        lambda hosts, s: torus_fabric((3, 3), hosts_per_node=hosts, rng=s, **_SPEEDS),
        st.integers(1, 2), st.integers(0, 99),
    ),
    # No dead ends at all: the pruning must be inert.
    st.builds(lambda s: torus2d(3, 3, rng=s, **_SPEEDS), st.integers(0, 99)),
)

# Coarse grids make equal arrivals (hop-count tie-breaks) common.
grid_times = st.integers(0, 40).map(float)
grid_costs = st.integers(1, 12).map(float)

bookings = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), grid_costs, grid_times),
    max_size=25,
)
queries = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), grid_costs, grid_times),
    min_size=1,
    max_size=6,
)


def _endpoints(net):
    """Leaf processors when the topology has two or more, else any."""
    dead = net.dead_ends()
    procs = sorted(v.vid for v in net.processors())
    leaves = [p for p in procs if dead[p]]
    return leaves if len(leaves) >= 2 else procs


def _pair(ends, a, b):
    src = ends[a % len(ends)]
    dst = ends[b % len(ends)]
    if dst == src:
        dst = ends[(ends.index(src) + 1) % len(ends)]
    return src, dst


def _observed(search, *args):
    """Run ``search`` with obs on: (route, its arrival label, relaxations)."""
    obs.enable()
    obs.reset()
    try:
        route = search(*args)
        probed = [e for e in OBS.bus.since(0) if e.kind == "route_probed"]
        relaxations = OBS.metrics.counter("routing.relaxations").value
    finally:
        obs.disable()
    arrival = probed[-1].data["arrival"] if probed else None
    return route, arrival, relaxations


class TestPrunedSearchesMatchOracles:
    @PROPS
    @given(net=topologies, booked=bookings, asked=queries,
           comm=st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD]))
    def test_indexed_search(self, net, booked, asked, comm):
        ends = _endpoints(net)
        state = LinkScheduleState()
        for i, (a, b, cost, ready) in enumerate(booked):
            src, dst = _pair(ends, a, b)
            schedule_edge_optimal(state, (i, 10_000 + i), bfs_route(net, src, dst),
                                  cost, ready, comm)
        queues = state._queues
        for a, b, cost, ready in asked:
            src, dst = _pair(ends, a, b)
            args = (net, src, dst, ready, cost, queues)
            route, arrival, relaxed = _observed(_dijkstra_indexed, *args)
            expected, _, naive_relaxed = _observed(naive_dijkstra_indexed, *args)
            assert [l.lid for l in route] == [l.lid for l in expected]
            t = ready
            for link in expected:
                q = queues.get(link.lid)
                _, _, t = linear_find_gap(q.slots if q is not None else [],
                                          cost / link.speed, t)
            assert arrival == t
            assert relaxed <= naive_relaxed

    @PROPS
    @given(net=topologies, booked=bookings, asked=queries,
           comm=st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD]))
    def test_fluid_search(self, net, booked, asked, comm):
        ends = _endpoints(net)
        state = BandwidthLinkState()
        for i, (a, b, cost, ready) in enumerate(booked):
            src, dst = _pair(ends, a, b)
            state.schedule_edge((i, 10_000 + i), bfs_route(net, src, dst),
                                cost, ready, comm)
        profiles = state._profiles
        for a, b, cost, ready in asked:
            src, dst = _pair(ends, a, b)
            args = (net, src, dst, ready, cost, profiles, cost <= _FEPS)
            route, arrival, relaxed = _observed(_dijkstra_fluid, *args)
            expected, _, naive_relaxed = _observed(naive_dijkstra_fluid, *args)
            assert [l.lid for l in route] == [l.lid for l in expected]
            t = ready
            for link in expected:
                prof = profiles.get(link.lid)
                t = naive_probe_step_finish(prof.segments if prof is not None else [],
                                            t, cost, link.speed)
            assert arrival == t
            assert relaxed <= naive_relaxed


class TestPruningBites:
    def test_leaves_are_never_relaxed_on_a_random_wan(self):
        net = random_wan(60, rng=4, **_SPEEDS)
        procs = sorted(v.vid for v in net.processors())
        src, dst = procs[0], procs[-1]
        args = (net, src, dst, 0.0, 5.0, {})
        route, _, relaxed = _observed(_dijkstra_indexed, *args)
        expected, _, naive_relaxed = _observed(naive_dijkstra_indexed, *args)
        assert [l.lid for l in route] == [l.lid for l in expected]
        # Every relaxation enters a vertex that is not a dead end, or dst.
        dead = net.dead_ends()
        allowed = sum(
            1 for u in net.vertices() for _, v in net.out_links(u.vid)
            if not dead[v] or v == dst
        )
        assert relaxed <= allowed
        assert relaxed < naive_relaxed
