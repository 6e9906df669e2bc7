"""Simulated-annealing mapping search under the contention model.

The paper's introduction cites simulated annealing [6] among the scheduling
families its heuristics compete with.  This scheduler closes that loop: it
searches over task->processor mappings, evaluating every candidate with the
*real* contention model (:func:`repro.core.mapping.simulate_mapping`, the
same BFS + basic-insertion engine as BA), so its result is directly
comparable with BA/OIHSA/BBSA makespans.

It is orders of magnitude slower than the list schedulers — that is the
point: it estimates how much headroom the one-pass heuristics leave on the
table.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.ba import BAScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.mapping import simulate_mapping
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.topology import NetworkTopology
from repro.network.validate import validate_topology
from repro.obs import OBS, ScheduleStats, diff_snapshots, diff_timings
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.validate import validate_graph
from repro.utils.rng import as_rng


class AnnealingScheduler:
    """Search task placements by simulated annealing.

    Parameters
    ----------
    iterations:
        Number of neighbour evaluations (each one full contention
        simulation).
    start_temp_factor:
        Initial temperature as a fraction of the seed makespan.
    cooling:
        Geometric cooling factor per iteration.
    seed_with_ba:
        Start from BA's mapping (default) instead of a random one.
    incremental:
        Score candidates with the prefix-reusing
        :class:`~repro.core.batch.BatchMappingEvaluator` (default) instead
        of a full ``simulate_mapping`` per candidate.  Results are
        bit-identical either way (``tests/test_batch_equivalence.py``);
        ``False`` keeps the naive evaluator reachable as the differential
        reference.
    """

    name = "annealing"

    def __init__(
        self,
        *,
        iterations: int = 300,
        start_temp_factor: float = 0.1,
        cooling: float = 0.99,
        seed_with_ba: bool = True,
        comm: CommModel = CUT_THROUGH,
        rng: int | np.random.Generator | None = 0,
        incremental: bool = True,
    ) -> None:
        if iterations < 1:
            raise SchedulingError(f"need at least one iteration, got {iterations}")
        if not 0 < cooling <= 1:
            raise SchedulingError(f"cooling must be in (0, 1], got {cooling}")
        self.iterations = iterations
        self.start_temp_factor = start_temp_factor
        self.cooling = cooling
        self.seed_with_ba = seed_with_ba
        self.comm = comm
        self.rng = rng
        self.incremental = incremental

    def schedule(self, graph: TaskGraph, net: NetworkTopology) -> Schedule:
        validate_graph(graph)
        validate_topology(net)
        observing = OBS.on
        if observing:
            metrics_before = OBS.metrics.snapshot()
            timings_before = OBS.profiler.snapshot()
            event_mark = OBS.bus.mark()
        gen = as_rng(self.rng)
        procs = [p.vid for p in net.processors()]
        tasks = [t.tid for t in graph.tasks()]

        if self.seed_with_ba:
            seed_schedule = BAScheduler(comm=self.comm).schedule(graph, net)
            mapping = {
                tid: pl.processor for tid, pl in seed_schedule.placements.items()
            }
        else:
            mapping = {tid: int(gen.choice(procs)) for tid in tasks}

        evaluator: BatchMappingEvaluator | None = None
        evaluate: Callable[[dict[int, int]], float]
        if self.incremental:
            evaluator = BatchMappingEvaluator(
                graph, net, comm=self.comm, algorithm=self.name
            )
            evaluate = evaluator.evaluate
        else:

            def _full_eval(m: dict[int, int]) -> float:
                return simulate_mapping(
                    graph, net, m, comm=self.comm, algorithm=self.name
                ).makespan

            evaluate = _full_eval

        best_mapping = dict(mapping)
        best_cost = current_cost = evaluate(mapping)
        temp = max(best_cost * self.start_temp_factor, 1e-9)

        for _ in range(self.iterations):
            tid = int(gen.choice(tasks))
            old_proc = mapping[tid]
            choices = [p for p in procs if p != old_proc]
            if not choices:
                break
            mapping[tid] = int(gen.choice(choices))
            cand_cost = evaluate(mapping)
            delta = cand_cost - current_cost
            if delta <= 0 or gen.random() < math.exp(-delta / temp):
                current_cost = cand_cost
                if current_cost < best_cost:
                    best_cost = current_cost
                    best_mapping = dict(mapping)
            else:
                mapping[tid] = old_proc
            temp *= self.cooling

        if evaluator is not None:
            result = evaluator.schedule(best_mapping)
        else:
            result = simulate_mapping(
                graph, net, best_mapping, comm=self.comm, algorithm=self.name
            )
        if observing:
            # Same capture ContentionScheduler attaches: what this whole
            # search did, including every candidate evaluation.
            result.stats = ScheduleStats(
                metrics=diff_snapshots(metrics_before, OBS.metrics.snapshot()),
                timings=diff_timings(timings_before, OBS.profiler.snapshot()),
                events=OBS.bus.since(event_mark),
            )
        return result
