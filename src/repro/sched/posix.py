"""Round-robin best-effort scheduler (the ``SCHED_OTHER`` stand-in).

Used for experiments that do not involve reservations at all, e.g. the
tracer-overhead measurements of Table 1, where ffmpeg and the trace
download agent share the CPU under the stock time-sharing policy.
"""

from __future__ import annotations

from collections import deque


from repro.sched.base import Scheduler
from repro.sim.process import Process
from repro.sim.time import MS


class RoundRobinScheduler(Scheduler):
    """Single-queue round robin with a fixed time slice."""

    # RR state is queue order plus slice remainder — nothing absolute to
    # shift and nothing monotone to extrapolate.
    cycle_defaults_ok = ("shift_times", "cycle_periods", "cycle_counters")

    def __init__(self, *, timeslice: int = 4 * MS) -> None:
        super().__init__()
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.timeslice = timeslice
        self._queue: deque[Process] = deque()
        self._slice_left = timeslice

    def on_ready(self, proc: Process, now: int) -> None:
        if proc not in self._queue:
            self._queue.append(proc)

    def on_block(self, proc: Process, now: int) -> None:
        if proc in self._queue:
            self._queue.remove(proc)
            self._slice_left = self.timeslice

    def pick(self, now: int) -> Process | None:
        return self._queue[0] if self._queue else None

    def charge(self, proc: Process, delta: int, now: int) -> None:
        self._slice_left -= delta
        if self._slice_left <= 0:
            # keep the overrun modulo the slice, so charging d1 then d2
            # leaves the same remainder as charging d1 + d2 at once
            self._slice_left = self._slice_left % self.timeslice or self.timeslice
            if len(self._queue) > 1 and self._queue[0] is proc:
                self._queue.rotate(-1)

    def time_until_internal_event(self, proc: Process, now: int) -> int | None:
        if len(self._queue) <= 1:
            return None
        return max(self._slice_left, 1)

    def cycle_state(self, now: int) -> object:
        """Run-queue rotation plus the remaining slice of the head."""
        return ("rr", tuple(p.pid for p in self._queue), self._slice_left)
