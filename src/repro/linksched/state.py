"""Per-link schedule state with undo-log transactions and indexed queues.

Schedulers repeatedly ask "what if I scheduled this task's communications
toward processor P?" (BA probes every processor).  Rather than copying every
touched queue on first write (the original copy-on-write scheme, retained as
the differential-test reference in ``tests/naive_reference.py``), each write
appends its exact inverse to an **undo log**: rollback replays the log in
reverse, so its cost is O(writes made in the transaction) — independent of
how many slots sit on the touched links — and commit simply drops the log.

Each :class:`_LinkQueue` also keeps parallel ``starts``/``finishes`` arrays
(for the bisecting gap search in :func:`repro.linksched.slots.find_gap_indexed`)
and a monotone **version counter**, bumped on every mutation including undo
replay.  ``(lid, version)`` therefore uniquely identifies queue content for
the lifetime of the state, which is what makes the routing probe memo in
:mod:`repro.core.oihsa` / :mod:`repro.core.bbsa` safe: a memo entry keyed by
``(lid, version, t, cost)`` can never serve a stale answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchedulingError
from repro.linksched.slots import TimeSlot, find_gap_indexed, insert_slot
from repro.types import EdgeKey, LinkId


@dataclass
class _LinkQueue:
    """One link's bookings: a sorted slot list plus derived indexes.

    ``starts``/``finishes`` mirror ``slots`` (``starts[i] is slots[i].start``)
    so gap searches bisect plain float arrays instead of walking objects.
    ``version`` increments on every mutation — including rollback replay —
    and never repeats, so ``(lid, version)`` keys probe memos safely.
    """

    slots: list[TimeSlot] = field(default_factory=list)
    by_edge: dict[EdgeKey, TimeSlot] = field(default_factory=dict)
    starts: list[float] = field(default_factory=list)
    finishes: list[float] = field(default_factory=list)
    version: int = 0

    def copy(self) -> "_LinkQueue":
        return _LinkQueue(
            list(self.slots),
            dict(self.by_edge),
            list(self.starts),
            list(self.finishes),
            self.version,
        )


#: shared empty view for links that were never booked
_EMPTY_ARRAYS: tuple[list[TimeSlot], list[float], list[float]] = ([], [], [])

# Undo-log entry tags (first tuple element).
_OP_INSERT = 0  # (tag, lid, index)                 -> remove slots[index]
_OP_SUFFIX = 1  # (tag, lid, index, old_suffix)     -> restore slots[index:]
_OP_ROUTE = 2   # (tag, edge, route)                -> forget the route


class LinkScheduleState:
    """All link queues plus per-edge route bookkeeping."""

    def __init__(self) -> None:
        self._queues: dict[LinkId, _LinkQueue] = {}
        self._routes: dict[EdgeKey, tuple[LinkId, ...]] = {}
        #: ``(edge, lid) -> NL(e, L)`` — built by :meth:`record_route` so the
        #: deferral slack computation is O(1) instead of ``route.index``.
        self._next_link: dict[tuple[EdgeKey, LinkId], LinkId | None] = {}
        self._undo: list[tuple] | None = None

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._undo is not None

    def begin(self) -> None:
        """Start a tentative-scheduling transaction (no nesting)."""
        if self._undo is not None:
            raise SchedulingError("link-schedule transaction already open")
        self._undo = []

    def commit(self) -> None:
        """Keep all changes made since :meth:`begin`."""
        if self._undo is None:
            raise SchedulingError("no open link-schedule transaction")
        self._undo = None

    def rollback(self) -> None:
        """Discard all changes made since :meth:`begin` (O(writes made))."""
        undo = self._undo
        if undo is None:
            raise SchedulingError("no open link-schedule transaction")
        queues = self._queues
        for entry in reversed(undo):
            tag = entry[0]
            if tag == _OP_INSERT:
                _, lid, index = entry
                queue = queues[lid]
                slot = queue.slots.pop(index)
                del queue.starts[index]
                del queue.finishes[index]
                del queue.by_edge[slot.edge]
                queue.version += 1
            elif tag == _OP_SUFFIX:
                _, lid, index, old_suffix = entry
                queue = queues[lid]
                for s in queue.slots[index:]:
                    del queue.by_edge[s.edge]
                for s in old_suffix:
                    queue.by_edge[s.edge] = s
                queue.slots[index:] = old_suffix
                queue.starts[index:] = [s.start for s in old_suffix]
                queue.finishes[index:] = [s.finish for s in old_suffix]
                queue.version += 1
            else:  # _OP_ROUTE
                _, edge, route = entry
                del self._routes[edge]
                for lid in route:
                    self._next_link.pop((edge, lid), None)
        self._undo = None

    def _queue(self, lid: LinkId) -> _LinkQueue:
        queue = self._queues.get(lid)
        if queue is None:
            # A queue created inside a transaction is simply left empty on
            # rollback (indistinguishable from an absent one).
            queue = _LinkQueue()
            self._queues[lid] = queue
        return queue

    # -- reads ----------------------------------------------------------------

    def slots(self, lid: LinkId) -> list[TimeSlot]:
        """The link's booking queue (treat as read-only)."""
        queue = self._queues.get(lid)
        return queue.slots if queue is not None else []

    def queue_arrays(
        self, lid: LinkId
    ) -> tuple[list[TimeSlot], list[float], list[float]]:
        """``(slots, starts, finishes)`` views for index-based scans."""
        queue = self._queues.get(lid)
        if queue is None:
            return _EMPTY_ARRAYS
        return queue.slots, queue.starts, queue.finishes

    def version(self, lid: LinkId) -> int:
        """Monotone mutation counter of the link's queue (0 if never booked)."""
        queue = self._queues.get(lid)
        return queue.version if queue is not None else 0

    def find_gap(
        self, lid: LinkId, duration: float, est: float, min_finish: float = 0.0
    ) -> tuple[int, float, float]:
        """Earliest placement on link ``lid`` via the indexed gap search.

        Bit-identical to ``find_gap(self.slots(lid), ...)`` — the linear
        reference — but ``O(log k + gaps examined)``.
        """
        queue = self._queues.get(lid)
        if queue is None:
            if duration < 0:
                raise SchedulingError(f"negative duration {duration}")
            if est < 0:
                raise SchedulingError(f"negative earliest start time {est}")
            floor = min_finish - duration
            start = est if est >= floor else floor
            return 0, start, start + duration
        return find_gap_indexed(queue.starts, queue.finishes, duration, est, min_finish)

    def slot_of(self, edge: EdgeKey, lid: LinkId) -> TimeSlot:
        """The slot edge ``edge`` occupies on link ``lid``."""
        queue = self._queues.get(lid)
        if queue is None or edge not in queue.by_edge:
            raise SchedulingError(f"edge {edge} has no slot on link {lid}")
        return queue.by_edge[edge]

    def has_slot(self, edge: EdgeKey, lid: LinkId) -> bool:
        queue = self._queues.get(lid)
        return queue is not None and edge in queue.by_edge

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        """The committed route of a scheduled edge."""
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def next_link_of(self, edge: EdgeKey, lid: LinkId) -> LinkId | None:
        """``NL(e, L)``: the link after ``lid`` on ``edge``'s route (None at tail)."""
        try:
            return self._next_link[(edge, lid)]
        except KeyError:
            self.route_of(edge)  # raises when the edge has no route at all
            raise SchedulingError(
                f"link {lid} is not on the route of edge {edge}"
            ) from None

    def used_links(self) -> list[LinkId]:
        return [lid for lid, q in self._queues.items() if q.slots]

    # -- writes ---------------------------------------------------------------

    def record_route(self, edge: EdgeKey, route: tuple[LinkId, ...]) -> None:
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already has a recorded route")
        self._routes[edge] = route
        next_link = self._next_link
        last = len(route) - 1
        for i, lid in enumerate(route):
            key = (edge, lid)
            if key not in next_link:  # first occurrence wins, as route.index did
                next_link[key] = route[i + 1] if i < last else None
        if self._undo is not None:
            self._undo.append((_OP_ROUTE, edge, route))

    def insert(self, lid: LinkId, index: int, slot: TimeSlot) -> None:
        """Insert a new slot at a known queue position."""
        queue = self._queue(lid)
        if slot.edge in queue.by_edge:
            raise SchedulingError(f"edge {slot.edge} already booked on link {lid}")
        insert_slot(queue.slots, index, slot)
        queue.starts.insert(index, slot.start)
        queue.finishes.insert(index, slot.finish)
        queue.by_edge[slot.edge] = slot
        queue.version += 1
        if self._undo is not None:
            self._undo.append((_OP_INSERT, lid, index))

    def replace_suffix(self, lid: LinkId, index: int, new_suffix: list[TimeSlot]) -> None:
        """Replace ``slots[index:]`` — used by OIHSA's deferral cascade.

        The new suffix may contain one new slot plus deferred (shifted) copies
        of the old ones; the ``by_edge`` index is rebuilt for affected edges.
        """
        queue = self._queue(lid)
        if index == len(queue.slots) and len(new_suffix) == 1:
            # Plain append — by far the most common deferral-free commit.
            s = new_suffix[0]
            if s.edge in queue.by_edge:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            queue.by_edge[s.edge] = s
            queue.slots.append(s)
            queue.starts.append(s.start)
            queue.finishes.append(s.finish)
            queue.version += 1
            if self._undo is not None:
                self._undo.append((_OP_SUFFIX, lid, index, []))
            return
        old_suffix = queue.slots[index:]
        removed = {s.edge for s in old_suffix}
        seen: set[EdgeKey] = set()
        for s in new_suffix:
            if (s.edge in queue.by_edge and s.edge not in removed) or s.edge in seen:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            seen.add(s.edge)
        for s in old_suffix:
            del queue.by_edge[s.edge]
        for s in new_suffix:
            queue.by_edge[s.edge] = s
        queue.slots[index:] = new_suffix
        queue.starts[index:] = [s.start for s in new_suffix]
        queue.finishes[index:] = [s.finish for s in new_suffix]
        queue.version += 1
        if self._undo is not None:
            self._undo.append((_OP_SUFFIX, lid, index, old_suffix))
