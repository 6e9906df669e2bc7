"""BBSA — Bandwidth Based Scheduling Algorithm (paper Section 5).

Shares OIHSA's framework (MLS processor estimate, descending-cost edge
priority, contention-aware Dijkstra routing) but books communications on the
bandwidth-shared fluid link model: a transfer may use the *remaining*
bandwidth of partially occupied periods and split its volume over time, so
spare capacity is never wasted and data moves as early as causality allows.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from repro.core.base import ContentionScheduler
from repro.core.schedule import Schedule
from repro.exceptions import RoutingError, SchedulingError
from repro.linksched.bandwidth import (
    _FEPS,
    BandwidthLinkState,
    BandwidthProfile,
    probe_step_finish,
)
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.routing import _check_endpoints, _settle_route, bfs_route
# Unused here; kept bound because perfbench/tracing.py wraps bbsa.dijkstra_route.
from repro.network.routing import dijkstra_route  # noqa: F401
from repro.network.topology import Link, NetworkTopology, Route, Vertex
from repro.obs import OBS, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.types import EdgeKey, LinkId, TaskId


def _dijkstra_fluid(
    net: NetworkTopology,
    src: int,
    dst: int,
    ready_time: float,
    cost: float,
    profiles: dict[LinkId, BandwidthProfile],
    tiny: bool,
) -> Route:
    """BBSA's contention-aware routing (paper §5): Dijkstra on arrival times.

    Relaxing a link runs the fluid step-arrival probe
    (:func:`repro.linksched.bandwidth.probe_step_finish`) over the link's
    bandwidth profile; ``tiny`` volumes (``<= _FEPS``) arrive at once.  Same
    labels, tie-breaks, lower-bound prunes and local work counts as
    :func:`repro.core.oihsa._dijkstra_indexed`; ``bandwidth.probes`` ticks
    once per relaxation when :func:`repro.network.routing._settle_route`
    flushes.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    if ready_time < 0:
        raise RoutingError(f"negative ready time {ready_time}")
    n = net.num_vertices
    dist_t: list[float] = [inf] * n
    dist_h: list[int] = [0] * n
    parent_v: list[int] = [-1] * n
    parent_l: list[Link | None] = [None] * n
    done = bytearray(n)
    dist_t[src] = ready_time
    heap: list[tuple[float, int, int]] = [(ready_time, 0, src)]
    out_links = net.sorted_out_links
    profiles_get = profiles.get
    best_dst = inf
    relaxations = 0
    cutoffs = 0
    while heap:
        d, hops, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u == dst:
            break
        nh = hops + 1
        for link, v in out_links(u):
            if done[v]:
                continue
            relaxations += 1
            cur_t = dist_t[v]
            lb = d + cost / link.speed
            if cur_t != inf or best_dst != inf:
                if lb > cur_t or (lb == cur_t and nh >= dist_h[v]) or lb > best_dst:
                    cutoffs += 1
                    continue
            if tiny:
                arrival = d
            else:
                prof = profiles_get(link.lid)
                arrival = probe_step_finish(
                    prof.segments if prof is not None else (),
                    d, cost, link.speed,
                )
            if arrival < cur_t or (arrival == cur_t and nh < dist_h[v]):
                dist_t[v] = arrival
                dist_h[v] = nh
                parent_v[v] = u
                parent_l[v] = link
                heappush(heap, (arrival, nh, v))
                if v == dst:
                    best_dst = arrival
    return _settle_route(
        net, src, dst, parent_v, parent_l, dist_t[dst], relaxations, cutoffs,
        "bandwidth.probes",
    )


class BBSAScheduler(ContentionScheduler):
    """Contention-aware scheduling on bandwidth-shared (fluid) links."""

    name = "bbsa"

    def __init__(
        self,
        *,
        task_insertion: bool = False,
        modified_routing: bool = True,
        edge_priority: bool = True,
        local_comm_exempt: bool = True,
        comm: CommModel = CUT_THROUGH,
    ) -> None:
        self.task_insertion = task_insertion
        self.modified_routing = modified_routing
        self.edge_priority = edge_priority
        self.local_comm_exempt = local_comm_exempt
        self.comm = comm
        self._bstate = BandwidthLinkState()
        self._arrivals: dict[EdgeKey, float] = {}
        self._mls = 1.0

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._bstate = BandwidthLinkState()
        self._arrivals = {}
        self._mls = net.mean_link_speed() if net.num_links else 1.0

    def _route(
        self, net: NetworkTopology, src: int, dst: int, cost: float, ready: float
    ) -> Route:
        if not self.modified_routing:
            with span("routing"):
                return bfs_route(net, src, dst)

        if cost < 0:
            raise SchedulingError(f"negative volume {cost}")
        profiles = self._bstate._profiles  # read-only: probes read the segment lists
        with span("routing"):
            return _dijkstra_fluid(net, src, dst, ready, cost, profiles, cost <= _FEPS)

    def _place_task(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> None:
        with span("processor_selection"):
            proc = self._mls_select_processor(
                graph, tid, procs, pstate, self._mls,
                local_comm_exempt=self.local_comm_exempt,
            )
        if OBS.on:
            OBS.metrics.counter("scheduler.processors_chosen").inc()
            OBS.emit(
                "processor_chosen",
                task=tid,
                proc=proc.vid,
                policy="mls-estimate",
                candidates=len(procs),
            )
        weight = graph.task(tid).weight
        if self.edge_priority:
            edges = self._in_edges_by_cost(graph, tid)
        else:
            edges = sorted(graph.in_edges(tid), key=lambda e: e.src)
        t_dr = 0.0
        for e in edges:
            src_pl = pstate.placement(e.src)
            if src_pl.processor == proc.vid:
                arrival = src_pl.finish
                self._bstate.schedule_edge(e.key, [], e.cost, src_pl.finish, self.comm)
            else:
                route = self._route(net, src_pl.processor, proc.vid, e.cost, src_pl.finish)
                with span("insertion"):
                    arrival = self._bstate.schedule_edge(
                        e.key, route, e.cost, src_pl.finish, self.comm
                    )
                if OBS.on:
                    OBS.metrics.counter("insertion.edges_scheduled").inc()
                    OBS.emit(
                        "edge_scheduled",
                        t=arrival,
                        edge=list(e.key),
                        policy="bandwidth",
                        links=[l.lid for l in route],
                        ready=src_pl.finish,
                        arrival=arrival,
                    )
            self._arrivals[e.key] = arrival
            t_dr = max(t_dr, arrival)
        self._place_on(pstate, tid, proc, weight, t_dr, insertion=self.task_insertion)

    def _finish(
        self, graph: TaskGraph, net: NetworkTopology, pstate: ProcessorState
    ) -> Schedule:
        return Schedule(
            algorithm=self.name,
            graph=graph,
            net=net,
            placements=pstate.placements(),
            edge_arrivals=dict(self._arrivals),
            bandwidth_state=self._bstate,
            comm=self.comm,
        )
