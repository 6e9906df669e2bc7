"""Span recording around the scheduler's layers, from outside ``src/``.

A :class:`Tracer` replaces module and class attributes that callers look up
at call time (``repro.core.oihsa.schedule_edge_optimal``,
``ContentionScheduler._mls_select_processor``, ...) with timing wrappers and
puts the originals back afterwards.  Nothing under ``src/`` changes, and
``repro.obs`` stays off: with obs on, OIHSA and BBSA run their generic
routing code instead of the production loops, so obs phase timings would
describe other code.

Spans are kept in memory as parallel lists — name, start, end, parent span,
algorithm, and one count (route hops, links booked, candidates scored or DAG
edges) — and summarised by :func:`layer_metrics` when the run ends.  The
algorithm of a span is the one of the enclosing ``schedule()`` span, so a
route search made by the BA seed run inside annealing counts as BA's.

Two levels:

- ``coarse`` (every run): only ``schedule()`` of each scheduler and
  ``run_unit`` of the sweep runner, a few hundred spans per pass.  The
  end-to-end edge rates and per-unit times are defined on these calls.
- ``full`` (traced runs): every layer entry point of :func:`_install_plan`.

Timestamps are read on a :class:`RefClock`, which rescales wall time by the
speed of a fixed calibration kernel measured in the same process every
quarter second.  On a shared two-vCPU host the same 500-task OIHSA run took
2.8-5.3 s within two minutes (CV 0.21); on the reference clock the CV was
0.07, because the host's slow phases slow the kernel too.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from bisect import bisect_right
from collections import defaultdict

LIST_ALGOS = ("ba", "oihsa", "bbsa")
SEARCH_ALGOS = {"annealing": "anneal", "genetic": "genetic"}

# Span names of the layers (the first component of a per-layer metric).
SCHEDULE = "loop"
SEARCH = "search"
RUN_UNIT = "sweep.run_unit"


_rnd = random.Random(1)
_KERNEL_GRAPH = [[(_rnd.randrange(4000), _rnd.random()) for _ in range(6)] for _ in range(4000)]


def _kernel() -> None:
    """Fixed stdlib-only work (Dijkstra over a random 4000-vertex graph)."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _KERNEL_GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, 1e300):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


class RefClock:
    """Wall time rescaled to a host that runs the calibration kernel in
    :attr:`KERNEL_S` seconds.

    :meth:`tick` runs the kernel when :attr:`INTERVAL` seconds have passed
    since the last run.  Between two kernel runs time advances at
    ``KERNEL_S`` over their (smoothed) mean duration, in reference seconds
    per second; time spent in the kernel itself does not advance the clock.
    """

    KERNEL_S = 0.015
    INTERVAL = 0.25

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._table: tuple | None = None

    def calibrate(self) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter()))
        self._table = None

    def tick(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.INTERVAL:
            self.calibrate()

    def _build(self) -> tuple:
        starts = [s for s, _ in self.samples]
        ends = [e for _, e in self.samples]
        runs = [e - s for s, e in self.samples]
        # Median of each kernel run and its neighbours, so one disturbed run
        # does not set the rate of the intervals on either side of it.
        durs = [statistics.median(runs[max(0, k - 1):k + 2]) for k in range(len(runs))]
        rates = [self.KERNEL_S / ((a + b) / 2) for a, b in zip(durs, durs[1:])]
        rates.append(rates[-1] if rates else self.KERNEL_S / durs[0])
        at_end = [0.0]
        for k in range(len(ends) - 1):
            at_end.append(at_end[-1] + (starts[k + 1] - ends[k]) * rates[k])
        return starts, ends, rates, at_end

    def ref(self, t: float) -> float:
        """Reference time of the wall-clock instant ``t`` (needs a sample)."""
        if self._table is None:
            self._table = self._build()
        starts, ends, rates, at_end = self._table
        k = bisect_right(starts, t) - 1
        if k < 0:
            return (t - starts[0]) * rates[0]
        if t <= ends[k]:
            return at_end[k]
        return at_end[k] + (t - ends[k]) * rates[k]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the wall-clock interval ``[start, end]``."""
        return self.ref(end) - self.ref(start)


def _install_plan(level: str) -> list[tuple]:
    """``(owner, attribute, span name, kind)`` for every wrapped entry point.

    ``kind`` selects how the wrapper names the algorithm and what it counts.
    """
    from repro.core import ba, base, batch, bbsa, oihsa
    from repro.core.annealing import AnnealingScheduler
    from repro.core.genetic import GeneticScheduler
    from repro.experiments import parallel

    plan = [
        (base.ContentionScheduler, "schedule", SCHEDULE, "schedule"),
        (AnnealingScheduler, "schedule", SEARCH, "search"),
        (GeneticScheduler, "schedule", SEARCH, "search"),
        (parallel, "run_unit", RUN_UNIT, "unit"),
    ]
    if level == "coarse":
        # No spans below these, only clock ticks in calls frequent enough
        # to keep the clock calibrated inside long runs.
        return plan + [
            (base.ContentionScheduler, "_place_on", None, "tick"),
            (batch.BatchMappingEvaluator, "evaluate", None, "tick"),
            (batch.BatchMappingEvaluator, "evaluate_batch", None, "tick"),
        ]
    from repro.core import validate
    from repro.experiments import runner, workloads
    from repro.linksched.bandwidth import BandwidthLinkState

    return plan + [
        (base.ContentionScheduler, "_mls_select_processor", "proc_select", "plain"),
        (ba.BAScheduler, "_select_processor", "proc_select", "plain"),
        (oihsa, "_dijkstra_indexed", "route", "route"),
        (bbsa, "_dijkstra_fluid", "route", "route"),
        (oihsa, "dijkstra_route", "route", "route"),
        (bbsa, "dijkstra_route", "route", "route"),
        (ba, "bfs_route", "route", "route"),
        (oihsa, "bfs_route", "route", "route"),
        (bbsa, "bfs_route", "route", "route"),
        (ba, "schedule_edge_basic", "book", "book"),
        (oihsa, "schedule_edge_basic", "book", "book"),
        (oihsa, "schedule_edge_optimal", "book", "book"),
        (BandwidthLinkState, "schedule_edge", "book", "book"),
        (base.ContentionScheduler, "_place_on", "place", "plain"),
        (validate, "validate_schedule", "validate", "validate"),
        (runner, "validate_schedule", "validate", "validate"),
        (workloads, "paper_workload", "sweep.workload_gen", "plain"),
        (batch.BatchMappingEvaluator, "evaluate", "search.eval", "eval"),
        (batch.BatchMappingEvaluator, "evaluate_batch", "search.eval", "eval_batch"),
    ]


class Tracer:
    """In-memory span recorder that patches layer entry points while active."""

    def __init__(self, clock: RefClock | None = None) -> None:
        self.clock = clock if clock is not None else RefClock()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.algos: list[str | None] = []
        self.counts: list[int] = []
        #: ``run_unit`` results in call order (makespans of every sweep unit)
        self.unit_results: list = []
        #: ``schedule()`` calls made while ``repro.obs`` was on
        self.obs_on_calls = 0
        #: final link working set per algorithm: [max, total, links]
        self.linkq: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._full = False

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str, algo: str | None) -> int:
        self.clock.tick()
        parent = self._stack[-1] if self._stack else -1
        if algo is None and parent >= 0:
            algo = self.algos[parent]
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.algos.append(algo)
        self.counts.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, algo: str | None, count: int,
             start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.algos.append(algo)
        self.counts.append(count)
        return len(self.names) - 1

    # -- patching ----------------------------------------------------------------

    def _wrapper(self, fn, name: str, kind: str):
        tracer = self
        opened = self._open
        closed = self._close

        if kind == "tick":
            tick = self.clock.tick

            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
        elif kind == "plain":
            def wrapper(*args, **kwargs):
                idx = opened(name, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(idx)
        elif kind == "route":
            def wrapper(*args, **kwargs):
                idx = opened(name, None)
                try:
                    route = fn(*args, **kwargs)
                finally:
                    closed(idx)
                tracer.counts[idx] = len(route)
                return route
        elif kind == "book":
            def wrapper(*args, **kwargs):
                # schedule_edge_basic/_optimal(state, edge, route, ...) and
                # BandwidthLinkState.schedule_edge(self, edge, route, ...)
                route = args[2]
                if not route:  # a local edge: nothing is booked
                    return fn(*args, **kwargs)
                idx = opened(name, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(idx)
                    tracer.counts[idx] = len(route)
        elif kind == "validate":
            def wrapper(schedule, *args, **kwargs):
                idx = opened(name, schedule.algorithm)
                try:
                    return fn(schedule, *args, **kwargs)
                finally:
                    closed(idx)
        elif kind in ("eval", "eval_batch"):
            batch = kind == "eval_batch"

            def wrapper(evaluator, candidates, *args, **kwargs):
                idx = opened(name, None)
                try:
                    return fn(evaluator, candidates, *args, **kwargs)
                finally:
                    closed(idx)
                    tracer.counts[idx] = len(candidates) if batch else 1
        elif kind in ("schedule", "search"):
            from repro.obs import OBS

            def wrapper(scheduler, graph, net, *args, **kwargs):
                if OBS.on:
                    tracer.obs_on_calls += 1
                idx = opened(name, scheduler.name)
                try:
                    result = fn(scheduler, graph, net, *args, **kwargs)
                finally:
                    closed(idx)
                if kind == "search":
                    tracer.counts[idx] = search_candidates(scheduler)
                else:
                    tracer.counts[idx] = graph.num_edges
                    if tracer._full:
                        tracer._record_linkq(result)
                return result
        elif kind == "unit":
            def wrapper(*args, **kwargs):
                idx = opened(name, None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    closed(idx)
                tracer.unit_results.append(result)
                return result
        else:  # pragma: no cover - plan and wrapper kinds are defined together
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return wrapper

    def install(self, level: str) -> None:
        """Patch the entry points of ``level`` (``"coarse"`` or ``"full"``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._full = level == "full"
        for owner, attr, name, kind in _install_plan(level):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrapper(raw.__func__, name, kind))
            else:
                patched = self._wrapper(raw, name, kind)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def to_reference_time(self) -> None:
        """Move every recorded timestamp onto the reference clock."""
        ref = self.clock.ref
        self.starts = [ref(t) for t in self.starts]
        self.ends = [ref(t) for t in self.ends]

    # -- link working set ----------------------------------------------------------

    def _record_linkq(self, schedule) -> None:
        if schedule.link_state is not None:
            state = schedule.link_state
            sizes = [len(state.slots(lid)) for lid in state.used_links()]
        elif schedule.bandwidth_state is not None:
            state = schedule.bandwidth_state
            lids = {lid for route in state.routes().values() for lid in route}
            sizes = [len(state.profile(lid).segments) for lid in sorted(lids)]
        else:
            return
        acc = self.linkq.setdefault(schedule.algorithm, [0, 0, 0])
        if sizes:
            acc[0] = max(acc[0], max(sizes))
            acc[1] += sum(sizes)
            acc[2] += len(sizes)

    # -- queries -------------------------------------------------------------------

    def durations(self, name: str) -> list[tuple[str | None, float, int]]:
        """``(algorithm, duration, count)`` of every span called ``name``."""
        return [
            (self.algos[i], self.ends[i] - self.starts[i], self.counts[i])
            for i, n in enumerate(self.names)
            if n == name
        ]


def search_candidates(scheduler) -> int:
    """Candidate mappings a search scores: the seed plus one per step."""
    if scheduler.name == "annealing":
        return scheduler.iterations + 1
    return scheduler.population * (scheduler.generations + 1)


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are merged first, so time is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            elif ce > cur_e:
                cur_e = ce
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass: ``{name: (value, unit)}``.

    Every layer of every algorithm is present; layers a workload never
    enters read 0.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[tuple[str, str | None], int] = defaultdict(int)
    self_s: dict[tuple[str, str | None], float] = defaultdict(float)
    counted: dict[tuple[str, str | None], int] = defaultdict(int)
    seed_s: dict[str, float] = defaultdict(float)
    names, algos, parents = tracer.names, tracer.algos, tracer.parents
    for i, name in enumerate(names):
        key = (name, algos[i])
        calls[key] += 1
        self_s[key] += selfs[i]
        counted[key] += tracer.counts[i]
        p = parents[i]
        if name == SCHEDULE and p >= 0 and names[p] == SEARCH:
            seed_s[algos[p]] += tracer.ends[i] - tracer.starts[i]

    n = max(1, passes)
    out: dict[str, tuple[float, str]] = {}
    for algo in LIST_ALGOS:
        out[f"proc_select.{algo}.calls"] = (calls["proc_select", algo] / n, "count")
        out[f"proc_select.{algo}.self_s"] = (self_s["proc_select", algo] / n, "s")
        out[f"route.{algo}.calls"] = (calls["route", algo] / n, "count")
        out[f"route.{algo}.self_s"] = (self_s["route", algo] / n, "s")
        out[f"route.{algo}.hops"] = (counted["route", algo] / n, "count")
        links = counted["book", algo]
        out[f"book.{algo}.calls"] = (calls["book", algo] / n, "count")
        out[f"book.{algo}.self_s"] = (self_s["book", algo] / n, "s")
        out[f"book.{algo}.links"] = (links / n, "count")
        out[f"book.{algo}.us_per_link"] = (
            1e6 * self_s["book", algo] / links if links else 0.0, "us")
        mx, total, nlinks = tracer.linkq.get(algo, (0, 0, 0))
        unit = "segments" if algo == "bbsa" else "slots"
        out[f"linkq.{algo}.max_{unit}"] = (float(mx), "count")
        out[f"linkq.{algo}.mean_{unit}"] = (total / nlinks if nlinks else 0.0, "count")
        out[f"place.{algo}.self_s"] = (self_s["place", algo] / n, "s")
        out[f"loop.{algo}.self_s"] = (self_s[SCHEDULE, algo] / n, "s")
        out[f"validate.{algo}.self_s"] = (self_s["validate", algo] / n, "s")
    units = sum(c for (name, _), c in calls.items() if name == RUN_UNIT)
    out["sweep.run_unit.self_s"] = (
        sum(v for (name, _), v in self_s.items() if name == RUN_UNIT) / n, "s")
    out["sweep.workload_gen.self_s"] = (
        sum(v for (name, _), v in self_s.items() if name == "sweep.workload_gen") / n, "s")
    out["sweep.units"] = (units / n, "count")
    for algo, short in SEARCH_ALGOS.items():
        out[f"search.{short}.eval_calls"] = (calls["search.eval", algo] / n, "count")
        out[f"search.{short}.candidates"] = (counted["search.eval", algo] / n, "count")
        out[f"search.{short}.eval_self_s"] = (self_s["search.eval", algo] / n, "s")
        out[f"search.{short}.seed_s"] = (seed_s[algo] / n, "s")
    return out
