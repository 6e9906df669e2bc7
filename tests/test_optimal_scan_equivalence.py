"""Differential suite for OIHSA's bounded optimal-insertion scan.

``probe_optimal`` stops its tail-to-head walk at the first slot whose
availability (``t_s + accum``, formula (2)) lies below the earliest finish
any gap can give, and the commit rewrites
only the slots the deferral cascade moved.  These tests hold both to exact
(``==``) equality with the full scan and whole-suffix commit kept in
:mod:`tests.naive_reference`:

1. ``probe_optimal`` (obs off and on) vs ``naive_probe_optimal``: index,
   start, finish and overflow, on queues built by real multi-hop bookings
   and on hand-laid queues whose gaps, lengths, overlaps and deferral
   slacks sit on the scale of ``EPS``;
2. whole bookings — ``schedule_edge_optimal`` (probe + commit per link,
   obs off and on) vs ``naive_schedule_edge_optimal``: arrivals and every
   link's slot list, for the generated plans and for one more edge booked
   from each link at each query ``est``.

Queries cover ``est`` before the head and past every slot, ``est`` a few
``EPS`` around a slot's start (the feasibility test's tolerance), positive
``min_finish``, both switching modes with and without hop delay, and
near-zero-length slots at large time offsets, where ``finish == start``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.linksched.optimal_insertion import probe_optimal, schedule_edge_optimal
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array, random_wan, switched_cluster
from repro.network.routing import bfs_route
from repro.network.topology import Link
from repro.types import EPS
from tests.naive_reference import naive_probe_optimal, naive_schedule_edge_optimal

FAST = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_NETS = [
    linear_array(5, rng=1, link_speed=(1, 4)),
    switched_cluster(4, rng=2, link_speed=(1, 4)),
    random_wan(6, rng=3, link_speed=(1, 10)),
]
_PROCS = [sorted(v.vid for v in net.processors()) for net in _NETS]


def _routes_from_each_link(net_idx: int) -> dict:
    """For every link on some processor-to-processor route, the longest
    route tail that starts with it (a path a booking can start with)."""
    procs = _PROCS[net_idx]
    tails: dict = {}
    for src in procs:
        for dst in procs:
            if src == dst:
                continue
            route = bfs_route(_NETS[net_idx], src, dst)
            for k, link in enumerate(route):
                if len(route) - k > len(tails.get(link.lid, ())):
                    tails[link.lid] = route[k:]
    return tails


_TAILS = [_routes_from_each_link(i) for i in range(len(_NETS))]

comms = st.sampled_from(
    [
        CUT_THROUGH,
        STORE_AND_FORWARD,
        CommModel("cut-through", 0.5),
        CommModel("store-and-forward", 0.25),
    ]
)

#: Regular transfers, and tiny ones that give zero-length slots at 1e6.
costs = st.one_of(
    st.floats(min_value=0.5, max_value=20.0),
    st.integers(min_value=1, max_value=8).map(float),
    st.floats(min_value=1e-13, max_value=1e-6),
)
offsets = st.sampled_from([0.0, 0.0, 1e6])
readies = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.5),
    st.floats(min_value=0.0, max_value=60.0),
)

bookings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), costs, readies),
    min_size=1,
    max_size=25,
)


#: Lengths on the scale of the feasibility tolerance, and ordinary ones.
fine = st.one_of(
    st.sampled_from([0.0, EPS / 4, EPS / 2, EPS, 2 * EPS]),
    st.floats(min_value=0.0, max_value=4 * EPS),
    st.floats(min_value=0.0, max_value=6.0),
)


@st.composite
def slack_queues(draw):
    """One link's queue laid out directly, each slot given its own deferral
    slack by a slot on a private next link.

    Gaps and lengths mix zero, ``EPS``-scale and ordinary values, and a slot
    may start up to ``EPS`` before its predecessor finishes, as the deferral
    cascade's tolerance allows.
    """
    offset = draw(offsets)
    state = LinkScheduleState()
    slots = []
    t = offset + draw(fine)
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        overlap = draw(st.sampled_from([0.0, 0.0, 0.0, EPS / 2, EPS]))
        start = max(t - overlap, slots[-1].start if slots else 0.0)
        slot = TimeSlot((i, 500 + i), start, start + draw(fine))
        slots.append(slot)
        slack = draw(st.one_of(st.just(0.0), fine))
        state.record_route(slot.edge, (0, 100 + i))
        state.insert(100 + i, 0, TimeSlot(slot.edge, start + slack, slot.finish + slack))
        t = slot.finish + draw(fine)
    state.replace_range(0, 0, 0, slots)
    return state, offset


def _route(net_idx: int, sel: int):
    procs = _PROCS[net_idx]
    n = len(procs)
    src = procs[sel % n]
    dst = procs[(sel // n) % n]
    if dst == src:
        dst = procs[(procs.index(src) + 1) % n]
    return bfs_route(_NETS[net_idx], src, dst)


def _book_all(state, book, net_idx, plan, offset, comm) -> list[float]:
    arrivals = []
    for i, (sel, cost, ready) in enumerate(plan):
        route = _route(net_idx, sel)
        arrivals.append(book(state, (i, 1000 + i), route, cost, offset + ready, comm))
    return arrivals


def _queues(state) -> dict:
    return {lid: list(state.slots(lid)) for lid in state.used_links()}


def _probe_both(state, link, cost, est, min_finish, comm):
    expected = naive_probe_optimal(state, link, cost, est, min_finish, comm)
    obs.disable()
    assert probe_optimal(state, link, cost, est, min_finish, comm) == expected
    obs.enable(obs.NullSink())
    try:
        assert probe_optimal(state, link, cost, est, min_finish, comm) == expected
    finally:
        obs.disable()


def _book_and_undo(state, book, link, cost, est, comm):
    """Book one more edge on ``link`` with obs off; return the arrival and the
    queues it left (or the error raised), then roll the booking back.

    Hand-laid queues can trip the cascade's slack check; both versions must
    then raise the same error.
    """
    obs.disable()
    state.begin()
    try:
        return book(state, (-1, -1), [link], cost, est, comm), _queues(state)
    except SchedulingError as exc:
        return "raised", str(exc)
    finally:
        state.rollback()


def _query_points(state, lid: int, duration: float, offset: float) -> list[float]:
    """``est`` values around the queue's interesting boundaries."""
    _, starts, finishes = state.queue_arrays(lid)
    points = [0.0, offset, finishes[-1], finishes[-1] + 3.0]
    for i in range(len(starts)):
        for k in (-2, -1, 0, 1, 2):
            points.append(starts[i] - duration + k * EPS)
        points.append(finishes[i])
    return [max(0.0, t) for t in points]


class TestProbeMatchesFullScan:
    @FAST
    @given(
        net_idx=st.integers(0, len(_NETS) - 1),
        plan=bookings,
        offset=offsets,
        comm=comms,
        cost=costs,
        min_finish_pad=st.one_of(st.just(None), st.floats(0.0, 10.0)),
    )
    def test_probe_matches_naive(self, net_idx, plan, offset, comm, cost, min_finish_pad):
        state = LinkScheduleState()
        _book_all(state, schedule_edge_optimal, net_idx, plan, offset, comm)
        links = {l.lid: l for l in _NETS[net_idx].links()}
        for lid in state.used_links():
            link = links[lid]
            duration = cost / link.speed
            for est in _query_points(state, lid, duration, offset):
                min_finish = 0.0 if min_finish_pad is None else est + min_finish_pad
                _probe_both(state, link, cost, est, min_finish, comm)

    @FAST
    @given(
        queue=slack_queues(),
        speed=st.sampled_from([1.0, 3.0]),
        comm=comms,
        cost=st.one_of(fine, costs),
        min_finish_pad=st.one_of(st.just(None), fine),
    )
    def test_probe_matches_naive_on_tolerance_scale_queues(
        self, queue, speed, comm, cost, min_finish_pad
    ):
        state, offset = queue
        link = Link(lid=0, src=0, dst=1, speed=speed)
        for est in _query_points(state, 0, cost / speed, offset):
            min_finish = 0.0 if min_finish_pad is None else est + min_finish_pad
            _probe_both(state, link, cost, est, min_finish, comm)
            # The same scan, through a one-link booking and its commit.
            assert _book_and_undo(state, schedule_edge_optimal, link, cost, est, comm) == (
                _book_and_undo(state, naive_schedule_edge_optimal, link, cost, est, comm)
            )

    def test_eps_tolerance_does_not_stop_the_walk(self):
        """A slot rejected within ``EPS`` of the earliest finish must not stop
        the walk: a gap nearer the head may still fit within the tolerance."""
        state = LinkScheduleState()
        first = TimeSlot((0, 1), 10.0 - 5e-10, 10.0 - 4e-10)
        second = TimeSlot((1, 2), 10.0 - 3e-10, 11.0)
        for slot in (first, second):
            state.record_route(slot.edge, (0,))
        state.replace_range(0, 0, 0, [first, second])
        link = Link(lid=0, src=0, dst=1, speed=1.0)
        placement = probe_optimal(state, link, 1.0, 9.0)
        assert placement == naive_probe_optimal(state, link, 1.0, 9.0)
        assert (placement.index, placement.start, placement.finish) == (0, 9.0, 10.0)
        arrival, queues = _book_and_undo(
            state, schedule_edge_optimal, link, 1.0, 9.0, CUT_THROUGH
        )
        assert arrival == 10.0 and queues[0][0] == TimeSlot((-1, -1), 9.0, 10.0)

    def test_unbooked_link(self):
        link = next(_NETS[0].links())
        for est in (0.0, 5.0):
            _probe_both(LinkScheduleState(), link, 3.0, est, 0.0, CUT_THROUGH)

    def test_stop_skips_the_closed_head(self):
        """With ``est`` past a long single-hop queue, the bounded scan rejects
        one gap where the full scan rejects all of them, and both append."""
        link = _route(0, 1)[0]
        state = LinkScheduleState()
        for i in range(40):
            state.record_route((i, 1000 + i), (link.lid,))
            state.insert(link.lid, i, TimeSlot((i, 1000 + i), 2.0 * i, 2.0 * i + 1.0))

        def rejections(probe):
            obs.enable(obs.NullSink())
            obs.reset()
            try:
                placement = probe(state, link, 2.0, 100.0, 0.0, CUT_THROUGH)
                counters = obs.METRICS.snapshot()["counters"]
                return placement, counters.get("optimal.gap_rejections", 0)
            finally:
                obs.disable()

        bounded, bounded_rejections = rejections(probe_optimal)
        full, full_rejections = rejections(naive_probe_optimal)
        assert bounded == full
        assert bounded.index == 40 and bounded.start == 100.0
        assert (bounded_rejections, full_rejections) == (1, 40)


class TestBookingMatchesFullScan:
    @FAST
    @given(
        net_idx=st.integers(0, len(_NETS) - 1),
        plan=bookings,
        offset=offsets,
        comm=comms,
    )
    def test_fused_and_instrumented_match_naive(self, net_idx, plan, offset, comm):
        naive = LinkScheduleState()
        expected = _book_all(naive, naive_schedule_edge_optimal, net_idx, plan, offset, comm)

        obs.disable()
        quiet = LinkScheduleState()
        assert _book_all(quiet, schedule_edge_optimal, net_idx, plan, offset, comm) == expected
        assert _queues(quiet) == _queues(naive)

        obs.enable(obs.NullSink())
        try:
            instrumented = LinkScheduleState()
            assert (
                _book_all(instrumented, schedule_edge_optimal, net_idx, plan, offset, comm)
                == expected
            )
        finally:
            obs.disable()
        assert _queues(instrumented) == _queues(naive)
        for state in (quiet, instrumented):
            for lid in state.used_links():
                slots, starts, finishes = state.queue_arrays(lid)
                assert starts == [s.start for s in slots]
                assert finishes == [s.finish for s in slots]
                assert all(state.slot_of(s.edge, lid) is s for s in slots)


    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        net_idx=st.integers(0, len(_NETS) - 1),
        plan=bookings,
        offset=offsets,
        comm=comms,
        cost=costs,
    )
    def test_fused_booking_at_every_query_point(self, net_idx, plan, offset, comm, cost):
        """One more edge booked from each link at each ``est`` of interest,
        under a transaction rolled back after the comparison."""
        obs.disable()
        quiet = LinkScheduleState()
        naive = LinkScheduleState()
        _book_all(quiet, schedule_edge_optimal, net_idx, plan, offset, comm)
        _book_all(naive, naive_schedule_edge_optimal, net_idx, plan, offset, comm)
        edge = (-1, -1)
        for lid in quiet.used_links():
            route = _TAILS[net_idx][lid]
            for est in _query_points(quiet, lid, cost / route[0].speed, offset):
                quiet.begin()
                naive.begin()
                try:
                    assert schedule_edge_optimal(
                        quiet, edge, route, cost, est, comm
                    ) == naive_schedule_edge_optimal(naive, edge, route, cost, est, comm)
                    assert _queues(quiet) == _queues(naive)
                finally:
                    quiet.rollback()
                    naive.rollback()


class TestReplaceRange:
    def _state(self):
        state = LinkScheduleState()
        for i in range(4):
            state.insert(0, i, TimeSlot((i, 10 + i), 3.0 * i, 3.0 * i + 1.0))
        return state

    def test_middle_range_keeps_the_tail(self):
        state = self._state()
        tail = state.slots(0)[2:]
        new = [TimeSlot((9, 9), 1.0, 2.0), TimeSlot((1, 11), 3.5, 4.5)]
        state.replace_range(0, 1, 2, new)
        assert state.slots(0)[1:3] == new
        assert state.slots(0)[3:] == tail
        assert state.slot_of((1, 11), 0).start == 3.5
        assert state.queue_arrays(0)[1] == [s.start for s in state.slots(0)]

    def test_rollback_restores_range(self):
        state = self._state()
        before = list(state.slots(0))
        state.begin()
        state.replace_range(0, 1, 3, [TimeSlot((9, 9), 1.0, 2.0)])
        state.replace_range(0, 3, 3, [TimeSlot((8, 8), 20.0, 21.0)])
        state.rollback()
        assert state.slots(0) == before
        assert state.queue_arrays(0)[2] == [s.finish for s in before]
        assert not state.has_slot((9, 9), 0) and not state.has_slot((8, 8), 0)
        assert state.slot_of((2, 12), 0) == before[2]

    def test_rejects_bad_range_and_double_booking(self):
        state = self._state()
        with pytest.raises(SchedulingError):
            state.replace_range(0, 3, 2, [])
        with pytest.raises(SchedulingError):
            state.replace_range(0, 0, 5, [])
        with pytest.raises(SchedulingError):
            state.replace_range(0, 1, 2, [TimeSlot((3, 13), 3.0, 4.0)])
        with pytest.raises(SchedulingError):
            state.replace_range(0, 4, 4, [TimeSlot((0, 10), 30.0, 31.0)])
