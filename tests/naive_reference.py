"""Naive reference implementations retained for differential testing.

PR "scheduler hot-path overhaul" replaced three substrate pieces with faster
equivalents that must be *bit-identical* in behavior:

- the linear ``find_gap`` scan      -> bisecting ``find_gap_indexed``,
- copy-on-write transactions        -> undo-log transactions,
- dict-labeled BFS/Dijkstra search  -> flat-array search with lower-bound
  pruning and inlined probes.

The fluid bandwidth model (BBSA) later went the same way: its sweep and
lookups scanned segments and arrival pieces from index 0 on every step, and
now walk monotone pointers entered by bisection.  The linear versions of
``forward_through_link``, ``probe_step_finish``, ``BandwidthProfile.used_at``
and ``Cumulative.value`` are kept below as ``naive_*`` functions.  So is
OIHSA's optimal insertion as it was before its scan was bounded and its
commit narrowed to the moved slots: ``naive_probe_optimal`` walks every
queued slot from tail to head, and ``naive_commit_optimal`` rewrites the
whole queue suffix.

This module keeps the original (seed) algorithms alive so Hypothesis can
drive both implementations through identical call sequences and compare
results exactly.  The code is intentionally the straightforward version —
clarity over speed — and must not be "optimized": it *is* the oracle.

``NaiveLinkScheduleState`` mirrors :class:`repro.linksched.state
.LinkScheduleState`'s full surface (including the ``_queues`` internals the
hot paths read), so it can be monkeypatched into any scheduler as a drop-in
replacement.  Its queues still expose ``starts``/``finishes``, but
maintained naively: the arrays are rebuilt from scratch on every write.

OIHSA's and BBSA's routing searches (``_dijkstra_indexed``,
``_dijkstra_fluid``) inline their probes and prune relaxations by a
contention-free lower bound.  ``naive_dijkstra_indexed`` and
``naive_dijkstra_fluid`` take the same arguments and run the unpruned
``naive_dijkstra_route`` with the linear probes instead.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

from repro.exceptions import RoutingError, SchedulingError
from repro.linksched.bandwidth import (
    _FEPS,
    BandwidthProfile,
    Cumulative,
    UsageSegment,
)
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.optimal_insertion import OptimalPlacement, deferrable_time
from repro.linksched.slots import TimeSlot, insert_slot
from repro.linksched.slots import find_gap as linear_find_gap
from repro.linksched.state import LinkScheduleState
from repro.network.routing import LinkProbe, _check_endpoints
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import OBS
from repro.types import EPS, EdgeKey, LinkId, VertexId

__all__ = [
    "NaiveLinkScheduleState",
    "linear_find_gap",
    "naive_bfs_route",
    "naive_commit_optimal",
    "naive_cumulative_value",
    "naive_dijkstra_fluid",
    "naive_dijkstra_indexed",
    "naive_dijkstra_route",
    "naive_forward_through_link",
    "naive_probe_optimal",
    "naive_probe_step_finish",
    "naive_schedule_edge_optimal",
    "naive_used_at",
]


# ---------------------------------------------------------------------------
# Routing: the seed's dict-labeled searches (no pruning, no inlined probes).
# ---------------------------------------------------------------------------


def naive_bfs_route(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route:
    """The seed's BFS: dict parents, per-pop ``sorted(net.out_links(u))``."""
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    parent: dict[VertexId, tuple[VertexId, Link]] = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for link, v in sorted(net.out_links(u), key=lambda lv: lv[0].lid):
            if v in seen:
                continue
            seen.add(v)
            parent[v] = (u, link)
            if v == dst:
                frontier.clear()
                break
            frontier.append(v)
    if dst not in parent:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route: Route = []
    cur = dst
    while cur != src:
        prev, link = parent[cur]
        route.append(link)
        cur = prev
    route.reverse()
    if OBS.on:
        OBS.metrics.counter("routing.bfs_routes").inc()
        OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
    return route


def naive_dijkstra_route(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    probe: LinkProbe,
) -> Route:
    """The seed's Dijkstra: every relaxation calls ``probe``, no cutoffs —
    which is what makes it an oracle for the pruned searches."""
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    if ready_time < 0:
        raise RoutingError(f"negative ready time {ready_time}")
    dist: dict[VertexId, tuple[float, int]] = {src: (ready_time, 0)}
    parent: dict[VertexId, tuple[VertexId, Link]] = {}
    done: set[VertexId] = set()
    heap: list[tuple[float, int, VertexId]] = [(ready_time, 0, src)]
    relaxations = 0
    while heap:
        d, hops, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for link, v in sorted(net.out_links(u), key=lambda lv: lv[0].lid):
            if v in done:
                continue
            relaxations += 1
            arrival = probe(link, d)
            if arrival < d:
                raise RoutingError(
                    f"probe on link {link.lid} returned arrival {arrival} earlier "
                    f"than availability {d}"
                )
            label = (arrival, hops + 1)
            if label < dist.get(v, (float("inf"), 0)):
                dist[v] = label
                parent[v] = (u, link)
                heappush(heap, (arrival, hops + 1, v))
    if dst not in parent:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route: Route = []
    cur = dst
    while cur != src:
        prev, link = parent[cur]
        route.append(link)
        cur = prev
    route.reverse()
    if OBS.on:
        OBS.metrics.counter("routing.dijkstra_routes").inc()
        OBS.metrics.counter("routing.relaxations").inc(relaxations)
        OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
    return route


def naive_dijkstra_indexed(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    cost: float,
    queues: dict,
) -> Route:
    """OIHSA's routing search the seed way: :func:`naive_dijkstra_route`
    driven by the linear gap probe, ticking ``insertion.probes`` once per
    relaxation.  Drop-in for ``repro.core.oihsa._dijkstra_indexed``."""

    def probe(link: Link, t: float) -> float:
        if OBS.on:
            OBS.metrics.counter("insertion.probes").inc()
        queue = queues.get(link.lid)
        _, _, finish = linear_find_gap(
            queue.slots if queue is not None else [], cost / link.speed, t
        )
        return finish

    return naive_dijkstra_route(net, src, dst, ready_time, probe)


def naive_dijkstra_fluid(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    cost: float,
    profiles: dict,
    tiny: bool,
) -> Route:
    """BBSA's routing search the seed way: :func:`naive_dijkstra_route`
    driven by :func:`naive_probe_step_finish`, ticking ``bandwidth.probes``
    once per relaxation.  Drop-in for ``repro.core.bbsa._dijkstra_fluid``;
    ``tiny`` is recomputed from ``cost`` rather than trusted."""

    def probe(link: Link, t: float) -> float:
        if OBS.on:
            OBS.metrics.counter("bandwidth.probes").inc()
        if cost <= _FEPS:
            return t
        prof = profiles.get(link.lid)
        return naive_probe_step_finish(
            prof.segments if prof is not None else [], t, cost, link.speed
        )

    return naive_dijkstra_route(net, src, dst, ready_time, probe)


# ---------------------------------------------------------------------------
# Link-schedule state: the seed's copy-on-write transaction scheme.
# ---------------------------------------------------------------------------


class _NaiveQueue:
    """One link's bookings with the derived arrays rebuilt on every write."""

    __slots__ = ("slots", "by_edge", "starts", "finishes")

    def __init__(
        self,
        slots: list[TimeSlot] | None = None,
        by_edge: dict[EdgeKey, TimeSlot] | None = None,
    ) -> None:
        self.slots = slots if slots is not None else []
        self.by_edge = by_edge if by_edge is not None else {}
        self.starts: list[float] = [s.start for s in self.slots]
        self.finishes: list[float] = [s.finish for s in self.slots]

    def rebuild(self) -> None:
        self.starts = [s.start for s in self.slots]
        self.finishes = [s.finish for s in self.slots]

    def copy(self) -> "_NaiveQueue":
        return _NaiveQueue(list(self.slots), dict(self.by_edge))


_EMPTY_ARRAYS: tuple[list[TimeSlot], list[float], list[float]] = ([], [], [])


class NaiveLinkScheduleState:
    """Seed-style state: first write inside a transaction copies the queue.

    Rollback restores the stashed originals — O(links touched) with a full
    queue copy per touched link, which is what the undo log replaced.
    """

    def __init__(self) -> None:
        self._queues: dict[LinkId, _NaiveQueue] = {}
        self._routes: dict[EdgeKey, tuple[LinkId, ...]] = {}
        #: present so hot paths that read ``state._next_link`` fall through
        #: their ``except KeyError`` branch into ``next_link_of`` (which the
        #: naive state answers with the seed's ``route.index`` scan).
        self._next_link: dict[tuple[EdgeKey, LinkId], LinkId | None] = {}
        self._txn_queues: dict[LinkId, _NaiveQueue] | None = None
        self._txn_routes: list[EdgeKey] | None = None

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn_queues is not None

    def begin(self) -> None:
        if self._txn_queues is not None:
            raise SchedulingError("link-schedule transaction already open")
        self._txn_queues = {}
        self._txn_routes = []

    def commit(self) -> None:
        if self._txn_queues is None:
            raise SchedulingError("no open link-schedule transaction")
        self._txn_queues = None
        self._txn_routes = None

    def rollback(self) -> None:
        if self._txn_queues is None or self._txn_routes is None:
            raise SchedulingError("no open link-schedule transaction")
        for lid, original in self._txn_queues.items():
            self._queues[lid] = original
        for edge in self._txn_routes:
            del self._routes[edge]
        self._txn_queues = None
        self._txn_routes = None

    def _writable(self, lid: LinkId) -> _NaiveQueue:
        queue = self._queues.get(lid)
        if queue is None:
            queue = _NaiveQueue()
            self._queues[lid] = queue
            if self._txn_queues is not None and lid not in self._txn_queues:
                # Remember the link was empty before the transaction.
                self._txn_queues[lid] = _NaiveQueue()
            return queue
        if self._txn_queues is not None and lid not in self._txn_queues:
            self._txn_queues[lid] = queue
            queue = queue.copy()
            self._queues[lid] = queue
        return queue

    # -- reads ----------------------------------------------------------------

    def slots(self, lid: LinkId) -> list[TimeSlot]:
        queue = self._queues.get(lid)
        return queue.slots if queue is not None else []

    def queue_arrays(
        self, lid: LinkId
    ) -> tuple[list[TimeSlot], list[float], list[float]]:
        queue = self._queues.get(lid)
        if queue is None:
            return _EMPTY_ARRAYS
        return queue.slots, queue.starts, queue.finishes

    def find_gap(
        self, lid: LinkId, duration: float, est: float, min_finish: float = 0.0
    ) -> tuple[int, float, float]:
        """The linear reference scan — the oracle for ``find_gap_indexed``."""
        return linear_find_gap(self.slots(lid), duration, est, min_finish)

    def slot_of(self, edge: EdgeKey, lid: LinkId) -> TimeSlot:
        queue = self._queues.get(lid)
        if queue is None or edge not in queue.by_edge:
            raise SchedulingError(f"edge {edge} has no slot on link {lid}")
        return queue.by_edge[edge]

    def has_slot(self, edge: EdgeKey, lid: LinkId) -> bool:
        queue = self._queues.get(lid)
        return queue is not None and edge in queue.by_edge

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def next_link_of(self, edge: EdgeKey, lid: LinkId) -> LinkId | None:
        """The seed's O(route length) ``route.index`` scan."""
        route = self.route_of(edge)
        try:
            i = route.index(lid)
        except ValueError:
            raise SchedulingError(
                f"link {lid} is not on the route of edge {edge}"
            ) from None
        return route[i + 1] if i + 1 < len(route) else None

    def used_links(self) -> list[LinkId]:
        return [lid for lid, q in self._queues.items() if q.slots]

    # -- writes ---------------------------------------------------------------

    def record_route(self, edge: EdgeKey, route: tuple[LinkId, ...]) -> None:
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already has a recorded route")
        self._routes[edge] = route
        if self._txn_routes is not None:
            self._txn_routes.append(edge)

    def insert(self, lid: LinkId, index: int, slot: TimeSlot) -> None:
        queue = self._writable(lid)
        if slot.edge in queue.by_edge:
            raise SchedulingError(f"edge {slot.edge} already booked on link {lid}")
        insert_slot(queue.slots, index, slot)
        queue.by_edge[slot.edge] = slot
        queue.rebuild()

    def replace_range(
        self, lid: LinkId, start: int, stop: int, new: list[TimeSlot]
    ) -> None:
        queue = self._writable(lid)
        if not 0 <= start <= stop <= len(queue.slots):
            raise SchedulingError(
                f"slot range [{start}, {stop}) outside the "
                f"{len(queue.slots)}-slot queue of link {lid}"
            )
        for s in queue.slots[start:stop]:
            del queue.by_edge[s.edge]
        for s in new:
            if s.edge in queue.by_edge:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            queue.by_edge[s.edge] = s
        queue.slots[start:stop] = new
        queue.rebuild()


# ---------------------------------------------------------------------------
# OIHSA optimal insertion: the full tail-to-head scan and whole-suffix commit
# that the bounded scan and the range commit replaced.
# ---------------------------------------------------------------------------



def naive_probe_optimal(
    state: LinkScheduleState,
    link: Link,
    cost: float,
    est: float,
    min_finish: float = 0.0,
    comm: CommModel = CUT_THROUGH,
) -> OptimalPlacement:
    """Earliest placement on ``link`` allowing deferral of existing slots.

    Pure (no commit).  Falls back to appending after the last slot when no
    deferral-assisted gap is feasible — the append position is never better
    than a feasible insertion, so the scan keeps the head-most feasible gap.
    """
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    observing = OBS.on
    if observing:
        OBS.metrics.counter("optimal.probes").inc()
    duration = cost / link.speed
    lid = link.lid
    queue = state._queues.get(lid)
    if queue is None:
        slots, starts, finishes = (), (), ()
    else:
        slots, starts, finishes = queue.slots, queue.starts, queue.finishes
    n = len(slots)
    floor = min_finish - duration
    lo = est if est >= floor else floor  # == max(est, min_finish - duration)

    # Tail placement is always feasible.  The best candidate is tracked in
    # plain locals; the OptimalPlacement is built once on return.
    tail_prev = finishes[-1] if n else 0.0
    start = tail_prev if tail_prev > lo else lo
    best_index = n
    best_start = start
    best_finish = start + duration
    best_overflow = 0.0

    # The scan calls the Lemma-2 slack once per queued slot; inline
    # :func:`deferrable_time` (same arithmetic) with the state's internals
    # hoisted, falling back to the methods only to raise their proper errors.
    next_link_map = state._next_link
    queues = state._queues
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"

    accum = 0.0
    for i in range(n - 1, -1, -1):
        slot_start = starts[i]
        gap_after = (starts[i + 1] - finishes[i]) if i + 1 < n else math.inf
        room = accum + gap_after
        if room == 0.0:  # repro-lint: disable=FLT001 (exact-zero fast path)
            # ``min(dt, 0.0)`` is 0.0 for any slack (clamped >= 0), so the
            # slack lookups can be skipped — back-to-back slots, the common
            # case in packed queue tails, all take this branch.
            accum = 0.0
        else:
            s = slots[i]
            try:
                next_lid = next_link_map[(s.edge, lid)]
            except KeyError:
                next_lid = state.next_link_of(s.edge, lid)  # raises the seed error
            if next_lid is None:
                dt = 0.0
            else:
                try:
                    nxt = queues[next_lid].by_edge[s.edge]
                except KeyError:
                    nxt = state.slot_of(s.edge, next_lid)  # raises the seed error
                if cut_through:
                    dt = min(
                        nxt.start - hop - s.start,
                        nxt.finish - hop - s.finish,
                    )
                else:
                    dt = nxt.start - hop - s.finish
                dt = max(0.0, dt)
            accum = dt if dt < room else room
        prev_finish = finishes[i - 1] if i > 0 else 0.0
        start = prev_finish if prev_finish > lo else lo
        finish = start + duration
        if finish <= slot_start + accum + EPS:
            overflow = finish - slot_start
            if overflow < 0.0:
                overflow = 0.0
            # Head-most feasible gap == earliest start: keep scanning.
            best_index = i
            best_start = start
            best_finish = finish
            best_overflow = overflow if overflow < accum else accum
        elif observing:
            OBS.metrics.counter("optimal.gap_rejections").inc()
            OBS.emit(
                "probe_rejected",
                t=start,
                lid=lid,
                index=i,
                needed=finish,
                available=slot_start + accum,
            )
    return OptimalPlacement(best_index, best_start, best_finish, best_overflow)


def naive_commit_optimal(
    state: LinkScheduleState,
    link: Link,
    edge: EdgeKey,
    placement: OptimalPlacement,
    comm: CommModel = CUT_THROUGH,
) -> None:
    """Apply a placement: insert the new slot and cascade deferrals.

    Each pushed slot's individual shift is asserted against its Lemma-2 slack
    (an internal invariant; a violation means the probe's ``accum`` math and
    the commit disagree — a bug, not a user error).
    """
    slots = state.slots(link.lid)
    new_slot = TimeSlot(edge, placement.start, placement.finish)
    suffix: list[TimeSlot] = [new_slot]
    prev_finish = new_slot.finish
    observing = OBS.on
    for i in range(placement.index, len(slots)):
        s = slots[i]
        if s.start + EPS >= prev_finish:
            suffix.extend(slots[i:])
            break
        delta = prev_finish - s.start
        slack = deferrable_time(state, link.lid, s, comm)
        if delta > slack + EPS:
            raise SchedulingError(
                f"deferral cascade pushed edge {s.edge} on link {link.lid} by "
                f"{delta:.12g} but its causality slack is only {slack:.12g}"
            )
        moved = s.shifted(delta)
        suffix.append(moved)
        prev_finish = moved.finish
        if observing:
            OBS.metrics.counter("optimal.deferrals").inc()
            OBS.metrics.histogram("optimal.deferral_amount").observe(delta)
            OBS.emit(
                "slot_deferred",
                t=moved.start,
                lid=link.lid,
                edge=list(s.edge),
                for_edge=list(edge),
                delta=delta,
                slack=slack,
            )
    # The seed rewrote the whole suffix; ``replace_range`` to the queue end
    # is the same write.
    state.replace_range(link.lid, placement.index, len(slots), suffix)


def naive_schedule_edge_optimal(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Book ``edge`` along ``route`` link by link with the full scan above."""
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    for link in route:
        placement = naive_probe_optimal(state, link, cost, est, min_finish, comm)
        naive_commit_optimal(state, link, edge, placement, comm)
        finish = placement.finish
        est, min_finish = comm.next_constraints(placement.start, finish)
    return finish


# ---------------------------------------------------------------------------
# Fluid bandwidth model: the linear scans from index 0 that the pointer walks
# and bisected entries of ``repro.linksched.bandwidth`` replaced.
# ---------------------------------------------------------------------------


def naive_cumulative_value(c: Cumulative, t: float) -> float:
    """Right-continuous value of ``c`` at ``t``."""
    pts = c.points
    if t < pts[0][0]:
        # Exact breakpoint lookup, not arithmetic.
        return pts[0][1] if pts[0][0] == t else 0.0  # repro-lint: disable=FLT001
    if t >= pts[-1][0]:
        return pts[-1][1]
    # Linear scan is fine: validation-only path.
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            if t == t1:  # repro-lint: disable=FLT001 (exact breakpoint lookup)
                continue  # prefer the right-most pair at jumps
            if t1 == t0:
                continue
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return pts[-1][1]


def naive_used_at(profile: BandwidthProfile, t: float) -> float:
    """Used fraction of ``profile`` at ``t``: a scan from the first segment."""
    for t0, t1, used in profile.segments:
        if t0 <= t < t1:
            return used
        if t0 > t:
            break
    return 0.0


def naive_forward_through_link(
    profile: BandwidthProfile,
    arrival: Cumulative,
    speed: float,
    reserve: bool = False,
) -> tuple[Cumulative, list[UsageSegment]]:
    """Greedily forward ``arrival`` through a link of ``speed``.

    Returns ``(departure cumulative, usage segments)``.  ``reserve=True``
    additionally commits the usage onto ``profile``.

    At every instant the forwarding rate is ``free(t) * speed`` while a
    backlog exists, otherwise ``min(arrival rate, free(t) * speed)`` — so the
    departure never exceeds the arrival (cut-through causality) and all spare
    bandwidth is exploited.
    """
    if speed <= 0:
        raise SchedulingError(f"non-positive link speed {speed}")
    volume = arrival.final_volume
    t0 = arrival.start_time
    if volume <= _FEPS:
        return Cumulative([(t0, 0.0)]), []

    # Decompose the arrival into jumps and constant-rate pieces.
    jumps: dict[float, float] = {}
    rate_pieces: list[tuple[float, float, float]] = []  # (t0, t1, rate)
    for (ta, va), (tb, vb) in zip(arrival.points, arrival.points[1:]):
        if tb == ta:
            if vb > va:
                jumps[ta] = jumps.get(ta, 0.0) + (vb - va)
        elif vb > va:
            rate_pieces.append((ta, tb, (vb - va) / (tb - ta)))

    event_times = sorted(
        {t0, *jumps, *(t for p in rate_pieces for t in (p[0], p[1])),
         *(t for t in profile.breakpoints() if t > t0)}
    )

    def arrival_rate(t: float) -> float:
        for a, b, r in rate_pieces:
            if a <= t < b:
                return r
        return 0.0

    forwarded = 0.0
    arrived = 0.0
    t = t0
    dep_points: list[tuple[float, float]] = [(t0, 0.0)]
    usage: list[UsageSegment] = []
    ei = 0
    # Consume any jump exactly at t0.
    arrived += jumps.pop(t0, 0.0)
    guard = 0
    max_iters = 8 * (len(event_times) + len(profile.segments) + 4) + 64
    while forwarded < volume - _FEPS:
        guard += 1
        if guard > max_iters:
            raise SchedulingError(
                "fluid sweep failed to converge (internal error): "
                f"forwarded {forwarded} of {volume}"
            )
        # Next fixed event after t.
        while ei < len(event_times) and event_times[ei] <= t:
            ei += 1
        horizon = event_times[ei] if ei < len(event_times) else math.inf
        a = arrival_rate(t)
        cap = max(0.0, 1.0 - naive_used_at(profile, t)) * speed
        backlog = arrived - forwarded
        if backlog > _FEPS:
            rate = cap
            t_zero = t + backlog / (cap - a) if cap > a else math.inf
        else:
            rate = min(a, cap)
            t_zero = math.inf
        t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
        t_next = min(horizon, t_zero, t_done)
        if math.isinf(t_next):
            raise SchedulingError(
                "transfer cannot complete: no arrival and no backlog "
                f"(forwarded {forwarded} of {volume} at t={t})"
            )
        if t_next > t:
            dt = t_next - t
            forwarded = min(volume, forwarded + rate * dt)
            arrived = min(volume, arrived + a * dt)
            if rate > 0:
                frac = rate / speed
                # Segments abut exactly: t is copied from the previous finish.
                if usage and usage[-1].finish == t and abs(usage[-1].fraction - frac) <= _FEPS:  # repro-lint: disable=FLT001
                    usage[-1] = UsageSegment(usage[-1].start, t_next, usage[-1].fraction)
                else:
                    usage.append(UsageSegment(t, t_next, frac))
            # Always record the breakpoint: a zero-rate span must appear in
            # the departure curve or interpolation would invent volume there.
            if dep_points[-1] != (t_next, forwarded):
                dep_points.append((t_next, forwarded))
            t = t_next
        # Apply any jump landing exactly at the new time.
        if t in jumps:
            arrived = min(volume, arrived + jumps.pop(t))

    if dep_points[-1][1] < volume:
        dep_points.append((t, volume))
    departure = Cumulative(dep_points)
    if reserve:
        profile.add_usage(usage)
    return departure, usage


def naive_probe_step_finish(
    segments: list[tuple[float, float, float]],
    t0: float,
    volume: float,
    speed: float,
) -> float:
    """Finish time of a step transfer over ``segments`` — probe-only sweep.

    Replays :func:`forward_through_link` for the special case of a step
    arrival, where the whole volume is backlogged from ``t0`` on: the
    forwarding rate is always the free capacity, and the sweep needs no
    departure curve, no usage segments and no arrival-rate bookkeeping.  It
    evaluates the same floating-point expressions over the same event times
    as the general sweep, so the returned finish time is bit-identical to
    ``forward_through_link(profile, Cumulative.step(t0, volume), speed)``
    followed by ``departure.finish_time()`` — just without the allocations.

    The general sweep's event set (every segment boundary after ``t0``)
    collapses to a segment-pointer walk: with ``si`` at the first segment
    ending after ``t``, the next event is that segment's start (when ``t``
    is in the gap before it) or its end (when ``t`` is inside it) — the
    segments are sorted and non-overlapping, so nothing else can intervene.
    """
    n_seg = len(segments)
    forwarded = 0.0
    t = t0
    si = 0
    guard = 0
    max_iters = 8 * (2 * n_seg + 5) + 64
    while forwarded < volume - _FEPS:
        guard += 1
        if guard > max_iters:
            raise SchedulingError(
                "fluid sweep failed to converge (internal error): "
                f"forwarded {forwarded} of {volume}"
            )
        while si < n_seg and segments[si][1] <= t:
            si += 1
        if si < n_seg:
            a, b, u = segments[si]
            if t < a:
                horizon = a
                used = 0.0
            else:
                horizon = b
                used = u
        else:
            horizon = math.inf
            used = 0.0
        rate = max(0.0, 1.0 - used) * speed
        t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
        t_next = horizon if horizon < t_done else t_done
        if math.isinf(t_next):
            raise SchedulingError(
                "transfer cannot complete: no arrival and no backlog "
                f"(forwarded {forwarded} of {volume} at t={t})"
            )
        if t_next > t:
            forwarded = min(volume, forwarded + rate * (t_next - t))
            t = t_next
    return t
