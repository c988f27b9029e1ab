"""Trace records and the kernel-side circular buffer.

The paper's kernel patch logs timestamps into "a statically allocated
circular buffer"; when the buffer wraps before the user-space tool drains
it, the oldest events are lost.  :class:`RingBuffer` reproduces both the
bounded memory and the overwrite semantics, and counts drops so
experiments can check the buffer was sized correctly.
"""

from __future__ import annotations

import enum

from repro.sim.syscalls import SyscallNr


class EventKind(enum.Enum):
    """What a trace record marks."""

    SYSCALL_ENTRY = "entry"
    SYSCALL_EXIT = "exit"
    WAKEUP = "wakeup"  # blocked -> ready transition (sched_events tracer)
    BLOCK = "block"


class TraceEvent:
    """One timestamped kernel event.

    A plain ``__slots__`` class (not a dataclass): a traced process makes
    two per system call.  It compares and hashes by value, as the frozen
    dataclass it replaces did, and is never mutated.
    """

    __slots__ = ("time", "pid", "nr", "kind")

    def __init__(self, time: int, pid: int, nr: SyscallNr | None, kind: EventKind) -> None:
        self.time = time
        self.pid = pid
        self.nr = nr
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        call = self.nr.value if self.nr is not None else "-"
        return f"TraceEvent({self.time}, pid={self.pid}, {call}, {self.kind.value})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not TraceEvent:
            return NotImplemented
        return (self.time, self.pid, self.nr, self.kind) == (
            other.time,
            other.pid,
            other.nr,
            other.kind,
        )

    def __hash__(self) -> int:
        return hash((self.time, self.pid, self.nr, self.kind))


class RingBuffer:
    """Fixed-capacity circular buffer of :class:`TraceEvent`.

    ``push`` overwrites the oldest entry when full (and bumps
    :attr:`dropped`); ``drain`` returns everything currently stored, in
    chronological order, and empties the buffer — the character-device
    "download a batch of time instants" operation.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slots: list[TraceEvent | None] = [None] * capacity
        self._head = 0  # next write position
        self._count = 0
        #: events overwritten before being drained
        self.dropped = 0
        #: total events ever pushed
        self.total = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True when the next push will overwrite the oldest record."""
        return self._count == self.capacity

    def push(self, event: TraceEvent) -> None:
        """Append ``event``, overwriting the oldest record if full."""
        if self._count == self.capacity:
            self.dropped += 1
        else:
            self._count += 1
        self._slots[self._head] = event
        self._head = (self._head + 1) % self.capacity
        self.total += 1

    def drain(self) -> list[TraceEvent]:
        """Return all stored events oldest-first and empty the buffer."""
        out = self.peek()
        head, count = self._head, self._count
        # only the live range holds events: every other slot is None
        if count <= head:
            self._slots[head - count : head] = [None] * count
        else:
            self._slots[head - count :] = [None] * (count - head)
            self._slots[:head] = [None] * head
        self._head = 0
        self._count = 0
        return out

    def peek(self) -> list[TraceEvent]:
        """Like :meth:`drain` but non-destructive."""
        # the live range ends just before ``_head`` and wraps when longer
        head, count = self._head, self._count
        if count <= head:
            return self._slots[head - count : head]  # type: ignore[return-value]
        return self._slots[head - count :] + self._slots[:head]  # type: ignore[return-value]
