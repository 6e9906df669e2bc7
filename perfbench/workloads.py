"""The benchmark's workloads: fixed instances and one timed pass of each.

Every run reports every end-to-end metric, so every workload runs BA, OIHSA
and BBSA and the two mapping searches, and validates every schedule; what
differs is the instance size and which of them carries the time:

- ``wan-large``: the paper's own scale and topology.  One homogeneous
  (CCR 1) and one heterogeneous (CCR 5) 500-task instance on a 128-processor
  random WAN, each scheduled by ba, oihsa and bbsa with ``repro.obs`` off.
  Link booking and route search dominate and grow per edge with |V|.  A
  short search on the homogeneous instance (about 15% of the pass)
  supplies the search rates.
- ``fig-sweep``: a heterogeneous CCR sweep in the style of Figure 3 through
  ``improvement_series(validate=True, with_metrics=True, jobs=1)``: 108
  units of U(40, 120) tasks on 8 to 128 processors, no result cache.  Link
  queues are short; processor selection, validation, the scheduler loop and
  the sweep runner carry more of the time, and ``with_metrics`` runs the
  obs-on routing and booking code.  A search on one sweep-sized instance
  (about 20% of the pass) supplies the search rates.
- ``search``: annealing (500 steps) and genetic search (32 x 15) with
  default settings on one heterogeneous 200-task, 32-processor instance:
  the only workload where ``core/batch.py`` and the evaluation kernel carry
  the time.  BA, OIHSA and BBSA run once on the same instance.

The instances are fixed: measured across instance seeds, one pass spread by
15-40% in wall time and lift (a 500-task OIHSA run took 2.8-5.2 s), wider
than any bound a regression check can use, and only a few instances fit in
one run.  Reference makespans for every operation are committed in
``reference.json``.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core import SCHEDULERS, validate
from repro.core.annealing import AnnealingScheduler
from repro.core.genetic import GeneticScheduler
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import plan_sweep
from repro.experiments.runner import improvement_series
from repro.experiments.workloads import WorkloadInstance, paper_workload

from tracing import LIST_ALGOS, RUN_UNIT, SCHEDULE, SEARCH, RefClock, Tracer

#: Instance seed of every workload (the first day of ICPP 2006).
INSTANCE_SEED = 20060814

FIG_SWEEP_CONFIG = ExperimentConfig(
    ccrs=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0),
    proc_counts=(8, 32, 128),
    task_range=(40, 120),
    repetitions=6,
    heterogeneous=True,
    seed=INSTANCE_SEED,
)


def _instance(n_tasks: int, heterogeneous: bool, ccr: float, n_procs: int,
              stream: int) -> WorkloadInstance:
    config = ExperimentConfig(task_range=(n_tasks, n_tasks), heterogeneous=heterogeneous)
    return paper_workload(config, ccr, n_procs, np.random.default_rng([INSTANCE_SEED, stream]))


@dataclass
class PassResult:
    """What one pass did: its operations, their makespans and its timings.

    Times are reference seconds (see ``tracing.RefClock``).
    """

    wall_s: float = 0.0
    #: the same interval in plain wall-clock seconds
    wall_raw_s: float = 0.0
    #: every operation attempted, ``"<instance>/<algorithm>"``
    keys: list[str] = field(default_factory=list)
    #: makespans of the operations that returned a valid schedule
    makespans: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: wall-clock (start, end) of each unit, as the workload records them
    unit_spans: list[tuple[float, float]] = field(default_factory=list)
    unit_walls: list[float] = field(default_factory=list)
    #: per algorithm: DAG edges and seconds inside ``schedule()``
    edges: dict[str, int] = field(default_factory=dict)
    sched_s: dict[str, float] = field(default_factory=dict)
    #: per search: candidate mappings scored and seconds inside ``schedule()``
    candidates: dict[str, int] = field(default_factory=dict)
    search_s: dict[str, float] = field(default_factory=dict)
    schedule_calls: int = 0
    obs_on_calls: int = 0


def _op(res: PassResult, key: str, make) -> None:
    """Run one scheduling operation and validate its schedule.

    A raise or a validation failure is recorded against the operation and
    the pass goes on with the next one.
    """
    res.keys.append(key)
    try:
        schedule = make()
        validate.validate_schedule(schedule)
    except Exception as exc:  # one failed operation must not stop the pass
        traceback.print_exc(file=sys.stderr)
        res.errors[key] = f"{type(exc).__name__}: {exc}"
        return
    res.makespans[key] = schedule.makespan


def _list_ops(res: PassResult, key: str, inst: WorkloadInstance) -> None:
    for algo in LIST_ALGOS:
        _op(res, f"{key}/{algo}",
            lambda: SCHEDULERS[algo]().schedule(inst.graph, inst.net))


def _search_ops(res: PassResult, key: str, inst: WorkloadInstance, *,
                iterations: int, population: int, generations: int) -> None:
    _op(res, f"{key}/annealing",
        lambda: AnnealingScheduler(iterations=iterations, rng=0).schedule(inst.graph, inst.net))
    _op(res, f"{key}/genetic",
        lambda: GeneticScheduler(population=population, generations=generations,
                                 rng=0).schedule(inst.graph, inst.net))


class Workload:
    """One workload: its inputs and the timed work of a pass."""

    name = ""
    #: whether the workload's own code turns ``repro.obs`` on for its list
    #: scheduler runs (fig-sweep's ``with_metrics``); checked every pass
    obs_on = False

    def build(self) -> dict:
        """Generate the instances (part of set-up)."""
        raise NotImplementedError

    def work(self, instances: dict, res: PassResult, tracer: Tracer) -> None:
        """The timed work of one pass."""
        raise NotImplementedError

    def run_pass(self, instances: dict, level: str) -> tuple[PassResult, Tracer]:
        """One timed pass with the tracer installed at ``level``."""
        res = PassResult()
        clock = RefClock()
        tracer = Tracer(clock)
        tracer.install(level)
        try:
            clock.calibrate()
            start = time.perf_counter()
            self.work(instances, res, tracer)
            end = time.perf_counter()
            clock.calibrate()
        finally:
            tracer.uninstall()
        res.wall_raw_s = end - start
        res.wall_s = clock.seconds(start, end)
        res.unit_walls = [clock.seconds(a, b) for a, b in res.unit_spans]
        tracer.to_reference_time()
        for algo, dur, count in tracer.durations(SCHEDULE):
            res.edges[algo] = res.edges.get(algo, 0) + count
            res.sched_s[algo] = res.sched_s.get(algo, 0.0) + dur
        for algo, dur, count in tracer.durations(SEARCH):
            res.candidates[algo] = res.candidates.get(algo, 0) + count
            res.search_s[algo] = res.search_s.get(algo, 0.0) + dur
        res.schedule_calls = len(tracer.durations(SCHEDULE))
        res.obs_on_calls = tracer.obs_on_calls
        return res, tracer


class WanLarge(Workload):
    name = "wan-large"

    def build(self) -> dict:
        return {
            "homo-ccr1": _instance(500, False, 1.0, 128, 0),
            "het-ccr5": _instance(500, True, 5.0, 128, 1),
        }

    def work(self, instances: dict, res: PassResult, tracer: Tracer) -> None:
        for key, inst in instances.items():
            start = time.perf_counter()
            _list_ops(res, key, inst)
            res.unit_spans.append((start, time.perf_counter()))
        _search_ops(res, "homo-ccr1", instances["homo-ccr1"],
                    iterations=10, population=4, generations=2)


class FigSweep(Workload):
    name = "fig-sweep"
    obs_on = True

    def build(self) -> dict:
        _, units = plan_sweep(FIG_SWEEP_CONFIG, "ccr")
        return {"units": units, "search": _instance(120, True, 2.0, 32, 3)}

    def work(self, instances: dict, res: PassResult, tracer: Tracer) -> None:
        algos = FIG_SWEEP_CONFIG.algorithms
        res.keys.extend(f"u{u.index}/{a}" for u in instances["units"] for a in algos)
        try:
            improvement_series(FIG_SWEEP_CONFIG, sweep="ccr", validate=True,
                               with_metrics=True, jobs=1)
        except Exception as exc:  # the sweep's units count as failed below
            traceback.print_exc(file=sys.stderr)
            res.errors["sweep"] = f"{type(exc).__name__}: {exc}"
        for unit in tracer.unit_results:
            for algo, makespan in unit.makespans.items():
                res.makespans[f"u{unit.index}/{algo}"] = makespan
        res.unit_spans.extend(
            (tracer.starts[i], tracer.ends[i])
            for i, name in enumerate(tracer.names) if name == RUN_UNIT
        )
        _search_ops(res, "search", instances["search"],
                    iterations=1200, population=32, generations=30)


class Search(Workload):
    name = "search"

    def build(self) -> dict:
        return {"search": _instance(200, True, 1.0, 32, 2)}

    def work(self, instances: dict, res: PassResult, tracer: Tracer) -> None:
        start = time.perf_counter()
        _list_ops(res, "search", instances["search"])
        _search_ops(res, "search", instances["search"],
                    iterations=500, population=32, generations=15)
        res.unit_spans.append((start, time.perf_counter()))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (WanLarge(), FigSweep(), Search())}
