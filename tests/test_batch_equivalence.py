"""Differential suite: the mapping-search evaluator vs full re-simulation.

:class:`repro.core.batch.BatchMappingEvaluator` claims **bit-identical**
results to :func:`repro.core.mapping.simulate_mapping` (the naive
reference) while scoring candidates on flat column arrays, re-simulating
only the suffix past each candidate's divergence point, and scoring whole
batches through one shared-prefix checkpoint.  This module proves the claim
by exact (``==``, never approximate) comparison on Hypothesis-generated
inputs:

1. random candidate *streams* (walks of single-task moves, full remaps, and
   repeats) scored three ways: through one live evaluator, through a fresh
   evaluator per candidate (no prefix or score reuse), and by a full
   simulation per candidate, both comm models;
2. :meth:`BatchMappingEvaluator.evaluate_batch` vs per-candidate naive
   scores — results in caller order regardless of the internal prefix sort;
3. the flat columns themselves: after a stream, the link state's
   ``(starts, finishes)`` per link and the processor finish column equal
   ``simulate_mapping``'s booking queues slot by slot;
4. the worst case — consecutive candidates diverging at order position 0;
5. materialized schedules vs ``simulate_mapping``, slot by slot;
6. the search schedulers: ``AnnealingScheduler`` / ``GeneticScheduler``
   scoring on the array columns vs ``incremental=False``, which scores on
   ``simulate_mapping``'s object link/processor states, produce equal
   schedules (same RNG draws, same trajectory);
7. validation on broken mappings, and the prefix-reuse / batch /
   identical-skip counters.
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


def _assert_schedules_equal(a, b):
    assert a.makespan == b.makespan
    assert a.placements == b.placements
    assert a.edge_arrivals == b.edge_arrivals
    assert a.link_state.routes() == b.link_state.routes()
    lids = set(a.link_state.used_links()) | set(b.link_state.used_links())
    for lid in lids:
        assert a.link_state.slots(lid) == b.link_state.slots(lid)


def _assert_columns_match_schedule(evaluator, net, ref):
    """The evaluator's flat columns == the reference schedule, slot by slot."""
    array_state = evaluator.link_state
    lids = set(array_state.booked_links()) | set(ref.link_state.used_links())
    for lid in lids:
        starts, finishes = array_state.columns(lid)
        _, ref_starts, ref_finishes = ref.link_state.queue_arrays(lid)
        assert starts == ref_starts
        assert finishes == ref_finishes
    proc_vids = [p.vid for p in net.processors()]
    expected = [0.0] * len(proc_vids)
    for pl in ref.placements.values():
        i = proc_vids.index(pl.processor)
        if pl.finish > expected[i]:
            expected[i] = pl.finish
    assert evaluator.proc_state.finish == expected


class TestEvaluateDifferential:
    @DIFF
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_candidate_stream_three_way(self, graph, net, comm, init_sel, walk):
        live = BatchMappingEvaluator(graph, net, comm=comm)
        for mapping in _mappings_for(graph, net, init_sel, walk):
            expected = simulate_mapping(graph, net, mapping, comm=comm).makespan
            cold = BatchMappingEvaluator(graph, net, comm=comm)
            assert live.evaluate(mapping) == expected
            assert cold.evaluate(mapping) == expected

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_batch_matches_sequential_naive(
        self, graph, net, comm, init_sel, walk
    ):
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        scores = evaluator.evaluate_batch(stream)
        expected = [
            simulate_mapping(graph, net, m, comm=comm).makespan for m in stream
        ]
        assert scores == expected  # caller order, not the internal prefix sort

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_columns_match_reference_slots(
        self, graph, net, comm, init_sel, walk
    ):
        """After a stream, the flat columns equal the reference queues slot by slot."""
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        for mapping in stream:
            evaluator.evaluate(mapping)
        # The columns hold the state of the last *simulated* candidate; a
        # repeat of an earlier mapping is served from the score cache without
        # touching them, so the reference is the stream's last first-seen one.
        seen: set[tuple[tuple[int, int], ...]] = set()
        simulated = stream[0]
        for mapping in stream:
            key = tuple(sorted(mapping.items()))
            if key not in seen:
                seen.add(key)
                simulated = mapping
        _assert_columns_match_schedule(
            evaluator, net, simulate_mapping(graph, net, simulated, comm=comm)
        )

    @WORST
    @given(graph=graphs, net=topologies, comm=comm_models, seed=st.integers(0, 10**6))
    def test_divergence_at_position_zero(self, graph, net, comm, seed):
        """Worst case: every candidate invalidates the whole prefix."""
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[(seed + i) % len(procs)] for i, tid in enumerate(order)}
        moved = dict(base)
        moved[order[0]] = procs[(procs.index(base[order[0]]) + 1) % len(procs)]
        evaluator = BatchMappingEvaluator(graph, net, comm=comm)
        for mapping in (base, moved, base, moved):
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
        evaluator.evaluate_batch(stream)
        final = stream[len(walk) // 2]  # rewind mid-stream, not just the last
        _assert_schedules_equal(
            evaluator.schedule(final), simulate_mapping(graph, net, final, comm=comm)
        )


class TestSchedulerBackendParity:
    """Array-column scoring vs ``simulate_mapping`` on the object states."""

    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_annealing_array_matches_object(self, graph, net, seed):
        kwargs = dict(iterations=40, rng=seed)
        arr = AnnealingScheduler(**kwargs).schedule(graph, net)
        obj = AnnealingScheduler(incremental=False, **kwargs).schedule(graph, net)
        _assert_schedules_equal(arr, obj)

    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_genetic_array_matches_object(self, graph, net, seed):
        kwargs = dict(population=6, generations=3, rng=seed)
        arr = GeneticScheduler(**kwargs).schedule(graph, net)
        obj = GeneticScheduler(incremental=False, **kwargs).schedule(graph, net)
        _assert_schedules_equal(arr, obj)


class TestValidationAndCounters:
    def _workload(self):
        graph = random_layered_dag(10, rng=7, density=0.4)
        net = fully_connected(3, rng=7)
        return graph, net

    def test_missing_task_raises(self):
        graph, net = self._workload()
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        mapping = {tid: procs[0] for tid in order}
        del mapping[order[len(order) // 2]]
        evaluator = BatchMappingEvaluator(graph, net)
        with pytest.raises(SchedulingError, match="misses tasks"):
            evaluator.evaluate(mapping)

    def test_non_processor_target_raises(self):
        graph, net = self._workload()
        switch = net.add_switch()
        net.connect(net.processors()[0], switch)
        mapping = {t.tid: switch.vid for t in graph.tasks()}
        with pytest.raises(SchedulingError, match="non-processor"):
            BatchMappingEvaluator(graph, net).evaluate(mapping)

    def test_bad_order_rejected(self):
        graph, net = self._workload()
        order = priority_list(graph)
        with pytest.raises(SchedulingError, match="permutation"):
            BatchMappingEvaluator(graph, net, order=order[:-1])

    def test_prefix_counters(self):
        graph, net = self._workload()
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[0] for tid in order}
        moved = dict(base)
        moved[order[-1]] = procs[1]  # diverges at the last order position
        obs.enable()
        obs.reset()  # the metrics registry is process-wide
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            evaluator.evaluate(base)
            evaluator.evaluate(moved)
            metrics = OBS.metrics
            assert metrics.counter("mapping.evaluations").value == 2
            assert metrics.counter("mapping.prefix_hits").value == 1
            # Full first pass (n tasks) + a one-task suffix for the move.
            expected = len(order) + 1
            assert (
                metrics.counter("mapping.suffix_tasks_resimulated").value == expected
            )
        finally:
            obs.disable()

    def test_batch_counters(self):
        graph, net = self._workload()
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[0] for tid in order}
        moved = dict(base)
        moved[order[-1]] = procs[1]  # shares the whole prefix but the last task
        obs.enable()
        obs.reset()  # the metrics registry is process-wide
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            evaluator.evaluate_batch([base, moved])
            metrics = OBS.metrics
            assert metrics.counter("mapping.batch_evaluations").value == 1
            assert metrics.counter("mapping.batch_candidates").value == 2
            assert metrics.counter("mapping.evaluations").value == 2
            # The second candidate reuses every position but the last.
            assert (
                metrics.counter("mapping.shared_prefix_tasks").value
                == len(order) - 1
            )
        finally:
            obs.disable()

    def test_identical_skips(self):
        graph, net = self._workload()
        procs = sorted(p.vid for p in net.processors())
        mapping = {t.tid: procs[0] for t in graph.tasks()}
        obs.enable()
        obs.reset()
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            first = evaluator.evaluate(mapping)
            second = evaluator.evaluate(dict(mapping))
            assert first == second
            assert OBS.metrics.counter("mapping.identical_skips").value == 1
            assert OBS.metrics.counter("mapping.evaluations").value == 2
        finally:
            obs.disable()

    def test_evaluate_emits_no_events(self):
        graph, net = self._workload()
        procs = sorted(p.vid for p in net.processors())
        mapping = {t.tid: procs[0] for t in graph.tasks()}
        obs.enable()
        try:
            BatchMappingEvaluator(graph, net).evaluate(mapping)
            assert list(OBS.bus.iter_events()) == []
        finally:
            obs.disable()


class TestKernelProvenance:
    def test_provenance_shape(self):
        from repro.core.kernelreg import kernel_provenance

        assert kernel_provenance("auto") == {"active": "python"}
        assert kernel_provenance() == kernel_provenance("auto")
