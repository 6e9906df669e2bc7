"""Genetic-algorithm mapping search under the contention model.

The second metaheuristic family the paper's introduction cites [5].  A
population of task->processor mappings evolves by tournament selection,
uniform crossover and point mutation; fitness is the *contention-model*
makespan from :func:`repro.core.mapping.simulate_mapping`, so results are
directly comparable with BA/OIHSA/BBSA.
"""

from __future__ import annotations

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


class GeneticScheduler:
    """Evolve task placements; fitness = contention-model makespan."""

    name = "genetic"

    def __init__(
        self,
        *,
        population: int = 16,
        generations: int = 20,
        mutation_rate: float = 0.05,
        elite: int = 2,
        seed_with_ba: bool = True,
        comm: CommModel = CUT_THROUGH,
        rng: int | np.random.Generator | None = 0,
        incremental: bool = True,
    ) -> None:
        if population < 2:
            raise SchedulingError(f"population must be >= 2, got {population}")
        if generations < 1:
            raise SchedulingError(f"generations must be >= 1, got {generations}")
        if not 0 <= mutation_rate <= 1:
            raise SchedulingError(f"mutation rate must be in [0, 1], got {mutation_rate}")
        if not 0 <= elite < population:
            raise SchedulingError(f"elite must be in [0, population), got {elite}")
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.elite = elite
        self.seed_with_ba = seed_with_ba
        self.comm = comm
        self.rng = rng
        #: score each generation as one batch with the prefix-reusing
        #: :class:`~repro.core.batch.BatchMappingEvaluator`; ``False`` keeps
        #: the full-resimulation reference path reachable.  Scores and
        #: schedules are bit-identical either way.
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
        procs = np.array([p.vid for p in net.processors()])
        tasks = [t.tid for t in graph.tasks()]
        n = len(tasks)

        def random_genome() -> np.ndarray:
            return gen.choice(procs, size=n)

        def to_mapping(genome: np.ndarray) -> dict[int, int]:
            return {tid: int(genome[i]) for i, tid in enumerate(tasks)}

        evaluator: BatchMappingEvaluator | None = None
        if self.incremental:
            evaluator = BatchMappingEvaluator(
                graph, net, comm=self.comm, algorithm=self.name
            )

        def score_pool(pool: list[np.ndarray]) -> np.ndarray:
            # The evaluator scores each generation as one batch forking from
            # the shared prefix checkpoint; scores are pure functions of the
            # mappings, so the result array is bit-identical to the
            # one-by-one reference path (same floats, same order).
            mappings = [to_mapping(g) for g in pool]
            if evaluator is not None:
                return np.array(evaluator.evaluate_batch(mappings))
            return np.array([
                simulate_mapping(
                    graph, net, m, comm=self.comm, algorithm=self.name
                ).makespan
                for m in mappings
            ])

        pool = [random_genome() for _ in range(self.population)]
        if self.seed_with_ba:
            ba = BAScheduler(comm=self.comm).schedule(graph, net)
            pool[0] = np.array([ba.placements[tid].processor for tid in tasks])
        scores = score_pool(pool)

        for _ in range(self.generations):
            order = np.argsort(scores)
            pool = [pool[i] for i in order]
            scores = scores[order]
            next_pool = pool[: self.elite]
            while len(next_pool) < self.population:
                # Tournament selection of two parents.
                a, b = gen.integers(0, self.population, size=2)
                p1 = pool[min(a, b)]
                a, b = gen.integers(0, self.population, size=2)
                p2 = pool[min(a, b)]
                mask = gen.random(n) < 0.5
                child = np.where(mask, p1, p2)
                mut = gen.random(n) < self.mutation_rate
                if mut.any():
                    child = child.copy()
                    child[mut] = gen.choice(procs, size=int(mut.sum()))
                next_pool.append(child)
            pool = next_pool
            scores = score_pool(pool)

        best = pool[int(np.argmin(scores))]
        if evaluator is not None:
            result = evaluator.schedule(to_mapping(best))
        else:
            result = simulate_mapping(
                graph, net, to_mapping(best), comm=self.comm, algorithm=self.name
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
