"""OIHSA — Optimal Insertion Hybrid Scheduling Algorithm (paper Section 4).

Four policy points, per the paper:

1. **Processor choice** (4.1): a static earliest-finish estimate using the
   mean link speed ``MLS`` instead of probing —
   ``min_P [ max( max_j(t_f(pred_j) + c(e_j,i)/MLS), t_f(P) ) + w(n_i)/s(P) ]``
   with the communication term dropped for predecessors already on ``P``.
2. **Edge priority** (4.2): in-edges booked in descending cost order, so big
   transfers grab routes and slots first.
3. **Modified routing** (4.3): Dijkstra whose relaxation cost is the finish
   time the edge would get on each link under *current* schedules (probed by
   basic insertion) — load-adaptive instead of hop-count BFS.
4. **Optimal insertion** (4.4): slots of already-booked edges may be deferred
   within their causality slack to open earlier gaps (Lemma 2 / Theorem 1).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from math import inf

from repro.core.base import ContentionScheduler
from repro.core.schedule import Schedule
from repro.exceptions import RoutingError, SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.state import LinkScheduleState, _LinkQueue  # repro-lint: disable=TXN001 (type-only use below)
from repro.network.routing import _check_endpoints, _settle_route, bfs_route
# Unused here; kept bound because perfbench/tracing.py wraps oihsa.dijkstra_route.
from repro.network.routing import dijkstra_route  # noqa: F401
from repro.network.topology import Link, NetworkTopology, Route, Vertex
from repro.obs import OBS, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.types import EdgeKey, LinkId, TaskId


def _dijkstra_indexed(
    net: NetworkTopology,
    src: int,
    dst: int,
    ready_time: float,
    cost: float,
    queues: dict[LinkId, _LinkQueue],  # repro-lint: disable=TXN001 (type annotation only)
) -> Route:
    """OIHSA's modified routing (paper §4.3): Dijkstra on arrival times.

    Relaxing a link probes its indexed queue for the earliest gap that fits
    ``cost / speed`` after the tail vertex's label (basic insertion, inlined).
    Labels and ``(arrival, hops, vid)`` tie-breaks are those of
    :func:`repro.network.routing.dijkstra_route`.

    The contention-free finish ``lb = d + duration`` never exceeds the
    probed one, so the probe is skipped when ``lb`` cannot improve the
    target's label: the real arrival could not have either.  It is also
    skipped when ``lb`` is *strictly* above the destination's label: that
    update would give its target a label popping only after ``dst``, where
    the search stops, so neither the popped sequence nor the route changes
    (ties are never pruned — an equal-arrival label with fewer hops can
    still pop first).  Relaxations and these cutoffs are counted in locals;
    ``insertion.probes`` ticks once per relaxation when
    :func:`repro.network.routing._settle_route` flushes.
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
    queues_get = queues.get
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
            duration = cost / link.speed
            lb = d + duration
            if cur_t != inf or best_dst != inf:
                if lb > cur_t or (lb == cur_t and nh >= dist_h[v]) or lb > best_dst:
                    cutoffs += 1
                    continue
            # Gap probe: ``find_gap_indexed`` with ``min_finish=0``, whose
            # start floor ``max(est, -duration)`` collapses to ``est``.
            q = queues_get(link.lid)
            if q is None:
                arrival = lb
            else:
                starts = q.starts
                finishes = q.finishes
                k = len(starts)
                i = bisect_left(starts, lb)
                prev_finish = finishes[i - 1] if i > 0 else 0.0
                while True:
                    start = prev_finish if prev_finish > d else d
                    arrival = start + duration
                    if i >= k or arrival <= starts[i]:
                        break
                    prev_finish = finishes[i]
                    i += 1
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
        "insertion.probes",
    )


class OIHSAScheduler(ContentionScheduler):
    """Contention-aware scheduling with deferral-based optimal insertion."""

    name = "oihsa"

    def __init__(
        self,
        *,
        task_insertion: bool = False,
        modified_routing: bool = True,
        optimal_insertion: bool = True,
        edge_priority: bool = True,
        local_comm_exempt: bool = True,
        comm: CommModel = CUT_THROUGH,
    ) -> None:
        """The boolean knobs exist for the paper's ablations; the defaults
        are OIHSA as published."""
        self.task_insertion = task_insertion
        self.modified_routing = modified_routing
        self.optimal_insertion = optimal_insertion
        self.edge_priority = edge_priority
        self.local_comm_exempt = local_comm_exempt
        self.comm = comm
        self._lstate = LinkScheduleState()
        self._arrivals: dict[EdgeKey, float] = {}
        self._mls = 1.0

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._lstate = LinkScheduleState()
        self._arrivals = {}
        self._mls = net.mean_link_speed() if net.num_links else 1.0

    # -- routing + booking --------------------------------------------------

    def _route(
        self,
        net: NetworkTopology,
        src: int,
        dst: int,
        cost: float,
        ready: float,
    ) -> Route:
        if not self.modified_routing:
            with span("routing"):
                return bfs_route(net, src, dst)

        if cost < 0:
            raise SchedulingError(f"negative communication cost {cost}")
        lstate = self._lstate
        queues = lstate._queues  # hot path: skip per-probe method dispatch
        with span("routing"):
            return _dijkstra_indexed(net, src, dst, ready, cost, queues)

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
        book = schedule_edge_optimal if self.optimal_insertion else schedule_edge_basic
        t_dr = 0.0
        for e in edges:
            src_pl = pstate.placement(e.src)
            if src_pl.processor == proc.vid:
                arrival = src_pl.finish
                self._lstate.record_route(e.key, ())
            else:
                route = self._route(
                    net, src_pl.processor, proc.vid, e.cost, src_pl.finish
                )
                with span("insertion"):
                    arrival = book(
                        self._lstate, e.key, route, e.cost, src_pl.finish, self.comm
                    )
            self._arrivals[e.key] = arrival
            t_dr = max(t_dr, arrival)
        self._place_on(pstate, tid, proc, weight, t_dr, insertion=self.task_insertion)

    def _finish(
        self, graph: TaskGraph, net: NetworkTopology, pstate: ProcessorState
    ) -> Schedule:
        if not self._arrivals and graph.num_edges:
            raise SchedulingError("internal error: no edges were booked")
        return Schedule(
            algorithm=self.name,
            graph=graph,
            net=net,
            placements=pstate.placements(),
            edge_arrivals=dict(self._arrivals),
            link_state=self._lstate,
            comm=self.comm,
        )
