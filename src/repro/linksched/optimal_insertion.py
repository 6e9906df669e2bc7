"""OIHSA's optimal insertion with deferral (paper Section 4.4).

Key idea: a slot already booked on link ``m`` for edge ``e`` may be *deferred*
(started later) without violating causality, because ``e``'s booking on its
**next** route link is unchanged — the slack is (Lemma 2)::

    dt(e, L_m) = min( t_s(e, NL) - t_s(e, L_m),  t_f(e, NL) - t_f(e, L_m) )

and ``dt = 0`` when ``L_m`` is the edge's last link (deferring would delay the
already-fixed arrival).  Deferring a slot — and cascading into its successors,
which consume their own slack — opens a larger idle gap in front of it.

The insertion scan walks the queue tail -> head maintaining the paper's
``accum`` (formula (2)): the largest amount slot ``n`` can slip given its own
``dt`` and the room behind it.  A gap in front of slot ``n`` is feasible for
the new transfer iff (formula (3))::

    max(t_f(slot n-1), est) + duration'   <=   t_s(slot n) + accum_n

(where duration' accounts for the min-finish causality bound).  The head-most
feasible gap gives the earliest start (Theorem 1); committing shifts the
affected slots right by exactly the overflow, which the scan guaranteed each
can absorb.

The scan is bounded: ``t_s(slot n) + accum_n`` never decreases from head to
tail (``accum_n <= accum_{n+1} + t_s(n+1) - t_f(n)`` and
``t_s(n) <= t_f(n)``), while the left-hand side of (3) is at least
``lo + duration'`` for every gap.  Once a slot's availability falls below
that, no gap further toward the head can be feasible, and the walk stops.
``_stop_threshold`` widens the test by a rounding allowance; the proof and
the floating-point argument are in docs/performance.md, "Bounded
optimal-insertion scan (OIHSA)".
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.topology import Link, Route
from repro.obs import OBS
from repro.types import EPS, EdgeKey


def deferrable_time(
    state: LinkScheduleState,
    lid: int,
    slot: TimeSlot,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Lemma 2: how far ``slot`` may slip on link ``lid`` without breaking causality.

    Cut-through: bounded by the next-link slot's start *and* finish (minus
    the hop delay).  Store-and-forward: bounded by the requirement that the
    next link starts only after this one finishes.
    """
    next_lid = state.next_link_of(slot.edge, lid)
    if next_lid is None:
        return 0.0
    nxt = state.slot_of(slot.edge, next_lid)
    if comm.mode == "cut-through":
        dt = min(
            nxt.start - comm.hop_delay - slot.start,
            nxt.finish - comm.hop_delay - slot.finish,
        )
    else:
        dt = nxt.start - comm.hop_delay - slot.finish
    # Causality guarantees the slack is >= 0; clamp against float fuzz.
    return max(0.0, dt)


#: Per-slot rounding allowance of the bounded scan's stop test, relative to
#: the magnitudes involved: 8 units in the last place (``2**-50``).
_STOP_ULPS = 2.0**-50


def _stop_threshold(lo_finish: float, n: int) -> float:
    """The scan over an ``n``-slot queue stops at the first rejected slot
    whose availability plus ``EPS`` lies below this value.

    ``lo_finish`` is ``lo + duration``, the earliest finish any gap can give.
    Subtracting ``(n + 1) * _STOP_ULPS * (lo_finish + n * EPS)`` covers the
    rounding the head-ward recursion can add over up to ``n`` slots, so the
    stop never skips a gap the full scan would accept.
    """
    return lo_finish - (n + 1) * _STOP_ULPS * (lo_finish + n * EPS)


class OptimalPlacement(NamedTuple):
    """Result of :func:`probe_optimal`: where the new slot goes and its times."""

    index: int
    start: float
    finish: float
    #: by how much the slot currently at ``index`` must be deferred (0 if none)
    overflow: float


def probe_optimal(
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
    stop_below = _stop_threshold(lo + duration, n)

    accum = 0.0
    rejections = 0
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
        available = slot_start + accum
        if finish <= available + EPS:
            overflow = finish - slot_start
            if overflow < 0.0:
                overflow = 0.0
            # Head-most feasible gap == earliest start: keep scanning.
            best_index = i
            best_start = start
            best_finish = finish
            best_overflow = overflow if overflow < accum else accum
        else:
            if observing:
                rejections += 1
                OBS.emit(
                    "probe_rejected",
                    t=start,
                    lid=lid,
                    index=i,
                    needed=finish,
                    available=available,
                )
            if available + EPS < stop_below:
                break  # no gap nearer the head can be feasible
    if observing and rejections:
        OBS.metrics.counter("optimal.gap_rejections").inc(rejections)
    return OptimalPlacement(best_index, best_start, best_finish, best_overflow)


def commit_optimal(
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
    lid = link.lid
    index = placement.index
    slots = state.slots(lid)
    new_slot = TimeSlot(edge, placement.start, placement.finish)
    moved_run: list[TimeSlot] = [new_slot]
    prev_finish = new_slot.finish
    observing = OBS.on
    stop = index
    for i in range(index, len(slots)):
        s = slots[i]
        if s.start + EPS >= prev_finish:
            break
        delta = prev_finish - s.start
        slack = deferrable_time(state, lid, s, comm)
        if delta > slack + EPS:
            raise SchedulingError(
                f"deferral cascade pushed edge {s.edge} on link {lid} by "
                f"{delta:.12g} but its causality slack is only {slack:.12g}"
            )
        moved = s.shifted(delta)
        moved_run.append(moved)
        prev_finish = moved.finish
        stop = i + 1
        if observing:
            OBS.metrics.histogram("optimal.deferral_amount").observe(delta)
            OBS.emit(
                "slot_deferred",
                t=moved.start,
                lid=lid,
                edge=list(s.edge),
                for_edge=list(edge),
                delta=delta,
                slack=slack,
            )
    state.replace_range(lid, index, stop, moved_run)
    if observing and stop > index:
        OBS.metrics.counter("optimal.deferrals").inc(stop - index)


def schedule_edge_optimal(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Book ``edge`` along ``route`` with optimal insertion; return arrival time."""
    if ready_time < 0:
        raise SchedulingError(f"negative ready time {ready_time}")
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    # ``comm.next_constraints`` inlined with the model's fields hoisted out of
    # the loop (same arithmetic — see CommModel.next_constraints).
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"
    for link in route:
        placement = probe_optimal(state, link, cost, est, min_finish, comm)
        commit_optimal(state, link, edge, placement, comm)
        finish = placement.finish
        if cut_through:
            est = placement.start + hop
            min_finish = finish + hop
        else:
            est = finish + hop
            min_finish = 0.0
    if OBS.on:
        OBS.metrics.counter("insertion.edges_scheduled").inc()
        OBS.emit(
            "edge_scheduled",
            t=finish,
            edge=list(edge),
            policy="optimal",
            links=[l.lid for l in route],
            ready=ready_time,
            arrival=finish,
        )
    return finish
