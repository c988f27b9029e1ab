"""Event calendar for the discrete-event simulator.

A minimal, deterministic priority queue of timestamped events.  Ties are
broken by insertion order (a monotonically increasing sequence number), so a
run never depends on heap internals or hash ordering.

The heap stores plain ``(time, seq, entry)`` tuples: comparisons resolve on
the ``(time, seq)`` prefix at C speed (``seq`` is unique, so the entry
object itself is never compared).  Cancellation stays O(1) and lazy — a
cancelled entry becomes a tombstone that is dropped when it surfaces — and
the queue counts its tombstones, so the heap is compacted whenever they
outnumber live entries (bounding the memory a cancel-heavy workload, e.g.
a timer wheel under churn, can pin).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any


class ScheduledEvent:
    """An entry in the calendar.

    Returned by :meth:`EventQueue.push` as a cancellation handle.
    ``callback`` and ``payload`` do not participate in ordering; the owning
    queue orders the heap on ``(time, seq)``.
    """

    __slots__ = ("time", "seq", "callback", "payload", "cancelled", "_queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[int, Any], None],
        payload: Any = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = cancelled
        #: owning queue while the entry sits in the heap (None once popped)
        self._queue: EventQueue | None = None

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduledEvent(time={self.time}, seq={self.seq}, "
            f"payload={self.payload!r}, cancelled={self.cancelled})"
        )


class EventQueue:
    """Deterministic min-heap of :class:`ScheduledEvent`.

    Cancellation is lazy (tombstones are skipped when popped, keeping
    :meth:`ScheduledEvent.cancel` O(1)), and the heap compacts itself when
    more than half of it is tombstones.
    """

    #: below this heap size compaction is never worth the heapify
    _COMPACT_MIN = 64

    __slots__ = ("_heap", "_seq", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, ScheduledEvent]] = []
        self._seq = 0
        self._dead = 0

    def push(
        self, time: int, callback: Callable[[int, Any], None], payload: Any = None
    ) -> ScheduledEvent:
        """Schedule ``callback(time, payload)`` at ``time``; return a handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, callback, payload)
        ev._queue = self
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def _on_cancel(self) -> None:
        """A live in-heap entry was just cancelled: count it and maybe compact."""
        self._dead += 1
        heap = self._heap
        if self._dead >= self._COMPACT_MIN and self._dead * 2 > len(heap):
            self._heap = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._dead = 0

    def peek_time(self) -> int | None:
        """Timestamp of the earliest pending event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heapq.heappop(heap)
                self._dead -= 1
            else:
                return entry[0]
        return None

    def snapshot(self) -> list[ScheduledEvent]:
        """Live pending events in dispatch order ``(time, seq)``.

        A read-only view for state digests (:mod:`repro.sim.cycles`); the
        heap itself is untouched.
        """
        return [entry[2] for entry in sorted(self._heap) if not entry[2].cancelled]

    def shift_times(self, delta: int) -> None:
        """Shift every pending event ``delta`` ns into the future.

        A uniform shift preserves the ``(time, seq)`` order of every pair
        of entries, so the heap invariant survives an in-place rewrite and
        no re-heapify is needed.  Used by the fast-forward extrapolation to
        relocate the whole calendar when whole schedule cycles are skipped.
        """
        if delta == 0:
            return
        if delta < 0:
            raise ValueError(f"shift must be non-negative, got {delta}")
        heap = self._heap
        for i, (time, seq, ev) in enumerate(heap):
            ev.time = time + delta
            heap[i] = (time + delta, seq, ev)

    def pop_due(self, now: int) -> ScheduledEvent | None:
        """Pop the earliest event if it is due at or before ``now``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > now:
                return None
            heapq.heappop(heap)
            ev._queue = None
            return ev
        return None
