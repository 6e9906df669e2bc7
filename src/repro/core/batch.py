"""The mapping searches' candidate evaluator: batched, on flat columns.

Mapping-search schedulers (simulated annealing, genetic search) score long
streams of neighbouring candidates with :func:`~repro.core.mapping.simulate_mapping`
semantics.  That function releases tasks in a fixed priority-list order and
every booking at order position ``p`` depends only on positions ``< p``, so
two mappings that agree up to their first differing position share a
bit-identical simulation prefix.  :class:`BatchMappingEvaluator` keeps the
simulation state of the last candidate live, rewinds it to the divergence
point and re-simulates only the suffix, on a flat column store driven
through the **kernel** (:mod:`repro.core._kernel`):

- Tasks are **dense order positions**, processors dense indices; a candidate
  is a flat ``list[int]`` (``cand[pos] = processor index``), so the
  candidate itself is the placement lookup table — no per-candidate dicts.
- ``weight / speed`` divisions are precomputed per (position, processor)
  into one flat row-major table; in-edges are per-position tuples of
  ``(source position, cost)`` fixed at construction.
- Routes resolve once per processor pair into a **route plan** installed
  into the kernel, so the inner loop touches no topology objects.  Plans
  stay lazy: the kernel reports the first unresolved pair it hits, this
  evaluator resolves the route (:func:`~repro.network.routing.bfs_route`)
  and retries.
- A booking is ``simulate_mapping``'s gap-search arithmetic verbatim (the
  bit-identity contract) followed by two column inserts and a journal
  append; a rewind pops journal entries.  No ``TimeSlot``, edge index or
  route record is built: the score-only pass never reads them.  The loop
  itself lives in the kernel.

**Batch semantics.**  :meth:`evaluate_batch` scores N candidates as one
batch forking from a shared prefix checkpoint.  Because every candidate's
score is a pure function of its mapping (simulation state is rewound, never
leaked between candidates), the batch may be evaluated in any order;
evaluating in **lexicographic dense-genome order** maximizes consecutive
shared prefixes (it is a depth-first walk of the candidates' prefix trie),
and results are returned in the caller's order.  A score cache keyed by the
dense genome short-circuits repeats (a genetic elite re-scored every
generation, an annealing move retried), counted as
``mapping.identical_skips``.

Counters (all under ``OBS.on``, accumulated per candidate — the evaluator
pays no per-booking instrumentation): ``mapping.evaluations``,
``mapping.prefix_hits`` (evaluations that reused a non-empty prefix),
``mapping.suffix_tasks_resimulated`` (positions actually re-run),
``mapping.shared_prefix_tasks`` (order positions reused from the
checkpoint), ``mapping.batch_evaluations`` / ``mapping.batch_candidates``
(every scoring request: one increment per :meth:`evaluate_batch` with its
population size, and one batch of size 1 per single-candidate
:meth:`evaluate` — so ``batch_candidates / batch_evaluations`` is the true
mean batch size across a search) and ``mapping.identical_skips``.

Scoring is bit-identical to ``simulate_mapping`` — same divisions, same gap
arithmetic, same ``max`` reductions — proven slot-by-slot by
``tests/test_batch_equivalence.py``.  Materializing a full
:class:`~repro.core.schedule.Schedule` (:meth:`BatchMappingEvaluator.schedule`)
delegates to ``simulate_mapping``: the columns carry no edge identities or
routes, and the winner is scheduled once per search.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core._kernel import ArrayLinkState, ArrayProcState, PyKernel
from repro.core.mapping import simulate_mapping
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.obs import OBS
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.priorities import priority_list
from repro.types import TaskId, VertexId

#: Score-cache keys: packed bytes for <=256 processors, tuples beyond.
_CacheKey = bytes | tuple[int, ...]

#: Distinct candidates remembered before the score cache resets.  Search
#: runs see a few hundred candidates; the cap only guards unbounded streams.
_CACHE_LIMIT = 1 << 16


class BatchMappingEvaluator:
    """Score task->processor mappings on flat columns, alone or in batches.

    Construction fixes the graph, network, communication model and task
    order (defaulting to the bottom-level priority list, like
    ``simulate_mapping``).  :meth:`evaluate` scores one candidate,
    :meth:`evaluate_batch` a population, :meth:`schedule` materializes the
    chosen mapping through ``simulate_mapping``.  The evaluator owns live
    column state shared across calls, so it must not be used concurrently.

    Per-candidate validation is lazy: a mapping
    that misses a task or maps one to a non-processor raises when first
    converted; extra keys for tasks outside the graph are ignored.
    """

    def __init__(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        *,
        order: Sequence[TaskId] | None = None,
        comm: CommModel = CUT_THROUGH,
        algorithm: str = "mapping",
    ) -> None:
        task_order = list(order) if order is not None else priority_list(graph)
        if sorted(task_order) != sorted(t.tid for t in graph.tasks()):
            raise SchedulingError("order is not a permutation of the graph's tasks")
        self._graph = graph
        self._net = net
        self._comm = comm
        self._algorithm = algorithm
        self._order = task_order
        procs = list(net.processors())
        self._proc_vids: list[VertexId] = [p.vid for p in procs]
        self._vid_to_pidx: dict[VertexId, int] = {
            p.vid: i for i, p in enumerate(procs)
        }
        n_procs = len(procs)
        self._n_procs = n_procs
        n = len(task_order)
        self._n = n
        pos_of = {tid: i for i, tid in enumerate(task_order)}
        # Static per-position facts.  ``exec_flat[pos * P + pidx]`` keeps
        # ``simulate_mapping``'s ``weight / speed`` division (never rewritten as a
        # multiplication by the inverse — that rounds differently).
        # ``in_edges[pos]`` holds position ``pos``'s ``(source position,
        # cost)`` pairs sorted by source task id: the booking order, which
        # the bit-identity with ``simulate_mapping`` depends on.
        exec_flat: list[float] = []
        in_edges: list[tuple[tuple[int, float], ...]] = []
        for tid in task_order:
            weight = graph.task(tid).weight
            exec_flat.extend(weight / p.speed for p in procs)
            edges = sorted(graph.in_edges(tid), key=lambda e: e.src)
            for e in edges:
                if e.cost < 0:
                    raise SchedulingError(f"negative communication cost {e.cost}")
            in_edges.append(tuple((pos_of[e.src], e.cost) for e in edges))
        self._k = PyKernel(
            n_procs,
            exec_flat,
            in_edges,
            comm.mode == "cut-through",
            comm.hop_delay,
        )
        #: reusable mapping->dense conversion buffer
        self._buf: list[int] = [0] * n
        self._scores: dict[_CacheKey, float] = {}
        self._pack_keys = n_procs <= 256

    # -- internals -----------------------------------------------------------

    def _resolve_plan(self, pair: int) -> None:
        """Resolve (once) a processor pair's route and install it."""
        src_pidx, dst_pidx = divmod(pair, self._n_procs)
        route = bfs_route(
            self._net, self._proc_vids[src_pidx], self._proc_vids[dst_pidx]
        )
        lids = [link.lid for link in route]
        speeds = [link.speed for link in route]
        self._k.set_plan(pair, lids, speeds)

    def dense(self, mapping: Mapping[TaskId, VertexId]) -> list[int]:
        """``mapping`` as a dense genome: processor index per order position."""
        vid_to_pidx = self._vid_to_pidx
        try:
            return [vid_to_pidx[mapping[tid]] for tid in self._order]
        except KeyError:
            for tid in self._order:
                if tid not in mapping:
                    raise SchedulingError(f"mapping misses tasks [{tid}]") from None
                if mapping[tid] not in vid_to_pidx:
                    raise SchedulingError(
                        f"task {tid} mapped to non-processor {mapping[tid]}"
                    ) from None
            raise  # pragma: no cover - unreachable: one branch above fired

    # -- public API ----------------------------------------------------------

    def evaluate_dense(self, cand: list[int]) -> float:
        """Makespan of a dense genome — bit-identical to ``simulate_mapping``.

        Rewinds the live columns to the longest prefix shared with the
        previously evaluated genome and re-simulates only the suffix (both
        inside the kernel).  Previously seen genomes return their cached
        score without touching the columns at all.  A kernel stop on an
        unresolved route plan resolves the route here and retries; the
        retry resumes after the already-simulated prefix, so the counters
        below still reflect the first call's true divergence point.
        """
        key: _CacheKey = bytes(cand) if self._pack_keys else tuple(cand)
        scores = self._scores
        hit = scores.get(key)
        if hit is not None:
            if OBS.on:
                OBS.metrics.counter("mapping.evaluations").inc()
                OBS.metrics.counter("mapping.identical_skips").inc()
            return hit
        span, divergence, missing = self._k.evaluate(cand)
        while missing >= 0:
            self._resolve_plan(missing)
            span, _retry_div, missing = self._k.evaluate(cand)
        if OBS.on:
            metrics = OBS.metrics
            metrics.counter("mapping.evaluations").inc()
            if divergence:
                metrics.counter("mapping.prefix_hits").inc()
                metrics.counter("mapping.shared_prefix_tasks").inc(divergence)
            resimulated = self._n - divergence
            if resimulated:
                metrics.counter("mapping.suffix_tasks_resimulated").inc(resimulated)
        if len(scores) >= _CACHE_LIMIT:
            scores.clear()
        scores[key] = span
        return span

    def evaluate(self, mapping: Mapping[TaskId, VertexId]) -> float:
        """Makespan of one candidate mapping (see :meth:`evaluate_dense`).

        Counted as a batch of size 1 (``mapping.batch_evaluations`` /
        ``mapping.batch_candidates``), so single-candidate searches like
        annealing report a truthful mean batch size instead of 0.
        """
        if OBS.on:
            OBS.metrics.counter("mapping.batch_evaluations").inc()
            OBS.metrics.counter("mapping.batch_candidates").inc()
        buf = self._buf
        vid_to_pidx = self._vid_to_pidx
        order = self._order
        try:
            for i in range(self._n):
                buf[i] = vid_to_pidx[mapping[order[i]]]
        except KeyError:
            self.dense(mapping)  # raises with the precise diagnosis
            raise  # pragma: no cover - unreachable: dense() always raises
        return self.evaluate_dense(buf)

    def evaluate_batch(
        self, mappings: Sequence[Mapping[TaskId, VertexId]]
    ) -> list[float]:
        """Score a whole candidate population; results in caller order.

        The batch forks from the live shared-prefix checkpoint: candidates
        are evaluated in lexicographic dense-genome order (a depth-first
        prefix-trie walk, so consecutive candidates share the longest
        possible checkpoints), and each score is a pure function of its
        mapping, so the reordering is unobservable in the results.
        """
        genomes = [self.dense(m) for m in mappings]
        if OBS.on:
            OBS.metrics.counter("mapping.batch_evaluations").inc()
            OBS.metrics.counter("mapping.batch_candidates").inc(len(genomes))
        by_prefix = sorted(range(len(genomes)), key=genomes.__getitem__)
        out = [0.0] * len(genomes)
        for k in by_prefix:
            out[k] = self.evaluate_dense(genomes[k])
        return out

    def schedule(self, mapping: Mapping[TaskId, VertexId]) -> Schedule:
        """Full :class:`~repro.core.schedule.Schedule` for ``mapping``.

        Delegates to :func:`~repro.core.mapping.simulate_mapping` — the
        columns store no edge identities or routes, and the search
        materializes exactly one winner.  Unlike the scoring path this
        validates the mapping eagerly, like ``simulate_mapping`` itself.
        """
        return simulate_mapping(
            self._graph,
            self._net,
            mapping,
            order=self._order,
            comm=self._comm,
            algorithm=self._algorithm,
        )

    # -- introspection (differential tests) ----------------------------------

    @property
    def link_state(self) -> ArrayLinkState:
        """The live link columns (read-only use: differential tests)."""
        return self._k.link_state

    @property
    def proc_state(self) -> ArrayProcState:
        """The live processor column (read-only use: differential tests)."""
        return self._k.proc_state
