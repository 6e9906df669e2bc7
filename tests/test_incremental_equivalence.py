"""Differential suite: incremental (prefix-reusing) evaluation vs full re-simulation.

The search schedulers score candidates one at a time through
:meth:`repro.core.batch.BatchMappingEvaluator.evaluate`, which rewinds the
live columns to the divergence point of each candidate and re-simulates only
the suffix.  ``incremental=False`` swaps that for one full
:func:`repro.core.mapping.simulate_mapping` per candidate.  This module
proves the two bit-identical along the single-candidate path — exact
(``==``, never approximate) comparison on Hypothesis-generated inputs:

1. random candidate *streams* (walks of single-task moves, full remaps, and
   repeats) scored through one live evaluator vs a fresh full simulation per
   candidate, both comm models;
2. the worst case — every candidate diverging at order position 0, so the
   entire prefix is rewound and nothing is reused;
3. materialized schedules after a stream of single evaluations vs
   ``simulate_mapping``: placements, edge arrivals, per-link slot lists,
   recorded routes and makespan, slot by slot;
4. the search schedulers with ``incremental=True`` vs ``incremental=False``
   from a random start mapping under store-and-forward (the kernel-
   parametrized parity in ``test_batch_equivalence`` covers the BA-seeded,
   cut-through configuration);
5. validation of broken mappings *after* the evaluator holds a warm prefix,
   and that a rejected candidate leaves the live state usable.

The batched path, the flat columns and the kernel axis are proved in
``test_batch_equivalence``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.core.annealing import AnnealingScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.genetic import GeneticScheduler
from repro.core.mapping import simulate_mapping
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD
from repro.network.builders import (
    fully_connected,
    linear_array,
    random_wan,
    switched_cluster,
)
from repro.obs import OBS
from repro.taskgraph.generators import random_layered_dag
from repro.taskgraph.priorities import priority_list

DIFF = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
WORST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SCHED = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

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

comm_models = st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD])

#: a candidate stream: the initial assignment plus a walk of edits.
#: Each step either moves one task ((pos, proc) selectors) or, when the
#: ``remap`` flag is set, rebases the whole mapping from the step's selectors
#: — the divergence point then lands anywhere, including position 0.
walks = st.lists(
    st.tuples(
        st.booleans(),  # full remap instead of a single move
        st.integers(0, 10**6),  # order-position selector
        st.integers(0, 10**6),  # processor selector
    ),
    min_size=1,
    max_size=6,
)


def _mappings_for(graph, net, init_sel, walk):
    """Deterministic candidate stream from Hypothesis-drawn selectors."""
    order = priority_list(graph)
    procs = sorted(p.vid for p in net.processors())
    mapping = {tid: procs[(init_sel + i) % len(procs)] for i, tid in enumerate(order)}
    stream = [dict(mapping)]
    for remap, pos_sel, proc_sel in walk:
        if remap:
            mapping = {
                tid: procs[(pos_sel + proc_sel * i) % len(procs)]
                for i, tid in enumerate(order)
            }
        else:
            mapping = dict(mapping)
            mapping[order[pos_sel % len(order)]] = procs[proc_sel % len(procs)]
        stream.append(dict(mapping))
    return stream


def _assert_schedules_equal(inc, ref):
    assert inc.makespan == ref.makespan
    assert inc.placements == ref.placements
    assert inc.edge_arrivals == ref.edge_arrivals
    assert inc.link_state.routes() == ref.link_state.routes()
    lids = set(inc.link_state.used_links()) | set(ref.link_state.used_links())
    for lid in lids:
        assert inc.link_state.slots(lid) == ref.link_state.slots(lid)


class TestEvaluateDifferential:
    @DIFF
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_candidate_stream_matches_full_resimulation(
        self, graph, net, comm, init_sel, walk
    ):
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        for mapping in _mappings_for(graph, net, init_sel, walk):
            expected = simulate_mapping(graph, net, mapping, comm=comm).makespan
            assert evaluator.evaluate(mapping) == expected

    @WORST
    @given(graph=graphs, net=topologies, comm=comm_models, seed=st.integers(0, 10**6))
    def test_divergence_at_position_zero(self, graph, net, comm, seed):
        """Worst case: every candidate invalidates the whole prefix.

        The first task in priority order visits every processor in turn, so
        each candidate is new (no score-cache hit) and diverges at position 0.
        """
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[(seed + i) % len(procs)] for i, tid in enumerate(order)}
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        for k in range(len(procs)):
            mapping = dict(base)
            mapping[order[0]] = procs[(seed + k) % len(procs)]
            expected = simulate_mapping(graph, net, mapping, comm=comm).makespan
            assert evaluator.evaluate(mapping) == expected

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_materialized_schedule_matches_slot_by_slot(
        self, graph, net, comm, init_sel, walk
    ):
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        for mapping in stream:
            evaluator.evaluate(mapping)
        final = stream[len(walk) // 2]  # rewind mid-stream, not just the last
        _assert_schedules_equal(
            evaluator.schedule(final), simulate_mapping(graph, net, final, comm=comm)
        )


class TestSchedulerEquivalence:
    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_annealing_incremental_matches_full(self, graph, net, seed):
        kwargs = dict(
            iterations=40, rng=seed, seed_with_ba=False, comm=STORE_AND_FORWARD
        )
        inc = AnnealingScheduler(incremental=True, **kwargs).schedule(graph, net)
        ref = AnnealingScheduler(incremental=False, **kwargs).schedule(graph, net)
        _assert_schedules_equal(inc, ref)

    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_genetic_incremental_matches_full(self, graph, net, seed):
        kwargs = dict(
            population=6,
            generations=3,
            rng=seed,
            seed_with_ba=False,
            comm=STORE_AND_FORWARD,
        )
        inc = GeneticScheduler(incremental=True, **kwargs).schedule(graph, net)
        ref = GeneticScheduler(incremental=False, **kwargs).schedule(graph, net)
        _assert_schedules_equal(inc, ref)


class TestValidationAndCounters:
    """Broken candidates arriving after a valid one has warmed the prefix."""

    def _workload(self):
        graph = random_layered_dag(10, rng=7, density=0.4)
        net = fully_connected(3, rng=7)
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        valid = {tid: procs[i % len(procs)] for i, tid in enumerate(order)}
        return graph, net, order, valid

    def test_missing_task_raises(self):
        graph, net, order, valid = self._workload()
        broken = dict(valid)
        del broken[order[len(order) // 2]]
        evaluator = BatchMappingEvaluator(graph, net)
        evaluator.evaluate(valid)
        with pytest.raises(SchedulingError, match="misses tasks"):
            evaluator.evaluate(broken)
        # The rejected candidate left the live state usable.
        moved = dict(valid)
        moved[order[-1]] = valid[order[0]]
        assert evaluator.evaluate(moved) == simulate_mapping(graph, net, moved).makespan

    def test_non_processor_target_raises(self):
        graph, net, order, valid = self._workload()
        switch = net.add_switch()
        net.connect(net.processors()[0], switch)
        broken = dict(valid)
        broken[order[-1]] = switch.vid  # the shared prefix is still valid
        evaluator = BatchMappingEvaluator(graph, net)
        evaluator.evaluate(valid)
        with pytest.raises(SchedulingError, match="non-processor"):
            evaluator.evaluate(broken)
        assert evaluator.evaluate(valid) == simulate_mapping(graph, net, valid).makespan

    def test_bad_order_rejected(self):
        graph, net, order, _ = self._workload()
        duplicated = order[:-1] + [order[0]]  # right length, not a permutation
        with pytest.raises(SchedulingError, match="permutation"):
            BatchMappingEvaluator(graph, net, order=duplicated)

    def test_evaluate_emits_no_events(self):
        """Prefix-reusing scoring is silent; only counters move.

        Route discovery is logged once per processor pair (``route_probed``)
        by the topology's route table, whoever asks first, so the routes are
        warmed before observing and the log holds the scoring work alone.
        """
        graph, net, order, valid = self._workload()
        procs = sorted(p.vid for p in net.processors())
        stream = []
        for pos in (len(order) - 1, len(order) // 2, 0):
            moved = dict(valid)
            nxt = (procs.index(valid[order[pos]]) + 1) % len(procs)
            moved[order[pos]] = procs[nxt]
            stream += [valid, moved]  # a prefix hit except at position 0
        for mapping in stream:
            simulate_mapping(graph, net, mapping)
        obs.enable()
        obs.reset()  # the metrics registry is process-wide
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            for mapping in stream:
                evaluator.evaluate(mapping)
            assert OBS.metrics.counter("mapping.prefix_hits").value > 0
            assert list(OBS.bus.iter_events()) == []
        finally:
            obs.disable()
