"""Differential suite for BBSA's fluid link model (``repro.linksched.bandwidth``).

The sweep and its lookups walk monotone pointers entered by bisection
instead of scanning from index 0, with the arithmetic untouched.  These
tests hold every entry point to exact (``==``) equality with the linear
versions kept in :mod:`tests.naive_reference`:

1. ``Cumulative.value`` and ``BandwidthProfile.used_at`` at arbitrary
   times, breakpoints included;
2. ``forward_through_link``: departure points, usage segments and finish
   time, for step and general arrivals (jumps, ramps, zero-rate spans);
3. ``probe_step_finish`` against its linear version *and* against the full
   sweep of a step arrival, which its docstring claims it replays;
4. whole multi-hop bookings through ``BandwidthLinkState.schedule_edge``
   under cut-through and store-and-forward, with the profiles they leave.

Times are drawn mostly from a coarse grid so that ``t0`` lands exactly on
segment starts and ends and arrival jumps coincide with segment boundaries.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SchedulingError
from repro.linksched.bandwidth import (
    BandwidthLinkState,
    BandwidthProfile,
    Cumulative,
    UsageSegment,
    forward_through_link,
    probe_step_finish,
)
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.network.topology import Link
from tests.naive_reference import (
    naive_cumulative_value,
    naive_forward_through_link,
    naive_probe_step_finish,
    naive_used_at,
)

FAST = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
CHAINS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Coarse grid times (exact breakpoint coincidences) mixed with free floats.
grid = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.5)
times = st.one_of(grid, grid, st.floats(min_value=0.0, max_value=20.0))
steps = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=8).map(lambda k: k * 0.5),
    st.floats(min_value=0.0, max_value=5.0),
)
fractions = st.one_of(
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.01, max_value=1.0),
)
speeds = st.sampled_from([0.5, 1.0, 2.0, 3.0])
volumes = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=12).map(float),
    st.floats(min_value=1e-3, max_value=30.0),
)


@st.composite
def profiles(draw) -> BandwidthProfile:
    """A profile as the scheduler builds it: stacked ``add_usage`` layers.

    A layer that would over-commit the link is skipped, as a scheduler would
    never book it.
    """
    prof = BandwidthProfile()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        layer = []
        t = draw(times)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            start = t + draw(steps)
            finish = start + draw(steps)
            layer.append(UsageSegment(start, finish, draw(fractions)))
            t = finish
        try:
            prof.add_usage(layer)
        except SchedulingError:
            pass
    return prof


def _near_profile(draw, prof: BandwidthProfile) -> float:
    """A time on a segment boundary, past the last segment, or anywhere."""
    bps = prof.breakpoints()
    options = [times, times]
    if bps:
        options += [st.sampled_from(bps), st.sampled_from(bps)]
        options.append(st.floats(min_value=0.0, max_value=5.0).map(lambda d: bps[-1] + d))
    return draw(st.one_of(*options))


@st.composite
def arrivals(draw, t0: float) -> Cumulative:
    """A departure-like cumulative from ``t0``: jumps, ramps and flat spans."""
    kind = draw(st.sampled_from(["step", "general", "general"]))
    if kind == "step":
        return Cumulative.step(t0, draw(volumes))
    points = [(t0, 0.0)]
    t, v = t0, 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        dt = draw(steps)
        # A zero dv over a positive dt is a zero-rate arrival span.
        dv = draw(st.one_of(st.just(0.0), volumes))
        t, v = t + dt, v + dv
        points.append((t, v))
    return Cumulative(points)


def _run(fn, *args):
    """``fn(*args)``, or the message of the ``SchedulingError`` it raises."""
    try:
        return fn(*args)
    except SchedulingError as exc:
        return ("raised", str(exc))


def _assert_forward_matches(prof: BandwidthProfile, arrival: Cumulative, speed: float):
    got = _run(forward_through_link, prof, arrival, speed)
    want = _run(naive_forward_through_link, prof, arrival, speed)
    if want[0] == "raised":
        assert got == want
        return
    (dep, usage), (ndep, nusage) = got, want
    assert dep.points == ndep.points
    assert usage == nusage
    assert dep.finish_time() == ndep.finish_time()


class TestLookups:
    @FAST
    @given(st.data())
    def test_used_at_matches_linear_scan(self, data):
        prof = data.draw(profiles())
        for _ in range(8):
            t = _near_profile(data.draw, prof)
            assert prof.used_at(t) == naive_used_at(prof, t)

    @FAST
    @given(st.data())
    def test_cumulative_value_matches_linear_scan(self, data):
        c = data.draw(arrivals(data.draw(times)))
        pts = [p[0] for p in c.points]
        for _ in range(8):
            t = data.draw(st.one_of(times, st.sampled_from(pts)))
            assert c.value(t) == naive_cumulative_value(c, t)


class TestForwardDifferential:
    @FAST
    @given(st.data())
    def test_forward_matches_linear_sweep(self, data):
        prof = data.draw(profiles())
        t0 = _near_profile(data.draw, prof)
        arrival = data.draw(arrivals(t0))
        _assert_forward_matches(prof, arrival, data.draw(speeds))

    @FAST
    @given(st.data())
    def test_probe_matches_linear_probe_and_sweep(self, data):
        prof = data.draw(profiles())
        t0 = _near_profile(data.draw, prof)
        volume, speed = data.draw(volumes), data.draw(speeds)
        got = probe_step_finish(prof.segments, t0, volume, speed)
        assert got == naive_probe_step_finish(prof.segments, t0, volume, speed)
        dep, _ = forward_through_link(prof, Cumulative.step(t0, volume), speed)
        assert got == dep.finish_time()

    @pytest.mark.parametrize(
        "segments, arrival",
        [
            # empty profile: step and ramp
            ([], Cumulative.step(3.0, 4.0)),
            ([], Cumulative([(0.0, 0.0), (2.0, 1.0), (5.0, 6.0)])),
            # t0 exactly at a segment start, at a segment end, past the last
            ([(2.0, 4.0, 0.5), (6.0, 8.0, 1.0)], Cumulative.step(2.0, 5.0)),
            ([(2.0, 4.0, 0.5), (6.0, 8.0, 1.0)], Cumulative.step(4.0, 5.0)),
            ([(2.0, 4.0, 0.5), (6.0, 8.0, 1.0)], Cumulative.step(8.0, 5.0)),
            ([(2.0, 4.0, 0.5), (6.0, 8.0, 1.0)], Cumulative.step(9.5, 5.0)),
            # arrival jumps on segment boundaries
            (
                [(1.0, 3.0, 0.75), (3.0, 5.0, 0.25)],
                Cumulative([(1.0, 0.0), (1.0, 2.0), (3.0, 2.0), (3.0, 5.0), (5.0, 5.0), (5.0, 7.0)]),
            ),
            # a zero-rate span between two ramps, ramps ending on boundaries
            (
                [(0.0, 2.0, 0.5), (4.0, 6.0, 0.5)],
                Cumulative([(0.0, 0.0), (2.0, 3.0), (4.0, 3.0), (6.0, 4.0)]),
            ),
        ],
    )
    def test_named_edge_cases(self, segments, arrival):
        prof = BandwidthProfile(list(segments))
        for speed in (0.5, 1.0, 2.0):
            _assert_forward_matches(prof, arrival, speed)
            if len(arrival.points) == 2:
                volume = arrival.final_volume
                got = probe_step_finish(prof.segments, arrival.start_time, volume, speed)
                assert got == naive_probe_step_finish(
                    prof.segments, arrival.start_time, volume, speed
                )
                assert got == forward_through_link(prof, arrival, speed)[0].finish_time()


    def test_non_convergence_guard_keeps_its_budget(self, monkeypatch):
        # At t = 1e16 a tiny backlog drains in less than half an ulp, so
        # the sweep cannot advance and only the guard ends it.  The profile
        # has breakpoints after t0, so the budget must count them too.
        T = 1e16
        arrival = Cumulative([(T, 0.0), (T, 1e-6), (T + 10, 1.000001)])
        prof = BandwidthProfile([(T + 4, T + 6, 0.5), (T + 8, T + 12, 0.25)])
        steps_taken = []
        for fn in (forward_through_link, naive_forward_through_link):
            calls = [0]
            isinf = math.isinf

            def counting_isinf(x, calls=calls, isinf=isinf):
                calls[0] += 1
                return isinf(x)

            monkeypatch.setattr(math, "isinf", counting_isinf)
            with pytest.raises(SchedulingError, match="failed to converge") as err:
                fn(prof, arrival, 1.0)
            monkeypatch.setattr(math, "isinf", isinf)
            steps_taken.append((calls[0], str(err.value)))
        assert steps_taken[0] == steps_taken[1]
        # 8 * (6 distinct events + 2 segments + 4) + 64 completed steps; the
        # arrival's 2 events alone would allow only 128.
        assert steps_taken[0][0] == 8 * (6 + 2 + 4) + 64


def _naive_schedule_edge(profiles, route, cost, ready, comm):
    """``BandwidthLinkState.schedule_edge``'s hop chain over the linear sweep."""
    hops = []
    arrival = Cumulative.step(ready, cost)
    for link in route:
        prof = profiles.setdefault(link.lid, BandwidthProfile())
        departure, usage = naive_forward_through_link(prof, arrival, link.speed, reserve=True)
        hops.append((departure.points, tuple(usage)))
        if comm.mode == "cut-through":
            arrival = departure.shifted(comm.hop_delay)
        else:
            arrival = Cumulative.step(departure.finish_time() + comm.hop_delay, cost)
    return hops


class TestBookingChains:
    LINKS = [Link(lid, speed, lid, lid + 1) for lid, speed in enumerate((1.0, 2.0, 0.5, 1.0))]

    @CHAINS
    @given(
        st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD,
                         CommModel(mode="store-and-forward", hop_delay=0.5),
                         CommModel(hop_delay=0.25)]),
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                         max_size=3, unique=True),
                st.one_of(st.integers(min_value=1, max_value=10).map(float),
                          st.floats(min_value=0.1, max_value=10.0)),
                times,
            ),
            min_size=1, max_size=10,
        ),
    )
    def test_schedule_edge_matches_linear_chain(self, comm, edges):
        state = BandwidthLinkState()
        naive_profiles: dict[int, BandwidthProfile] = {}
        for i, (lids, cost, ready) in enumerate(edges):
            route = [self.LINKS[lid] for lid in lids]
            finish = state.schedule_edge((i, i + 1), route, cost, ready, comm)
            want = _naive_schedule_edge(naive_profiles, route, cost, ready, comm)
            got = [(b.departure.points, b.usage) for b in state.bookings_of((i, i + 1))]
            assert got == want
            assert finish == Cumulative(want[-1][0]).finish_time()
        for lid, prof in naive_profiles.items():
            assert state.profile(lid).segments == prof.segments
