"""Scheduler interface.

The kernel drives schedulers through a small protocol:

- :meth:`Scheduler.on_ready` / :meth:`Scheduler.on_block` /
  :meth:`Scheduler.on_exit` report state transitions;
- :meth:`Scheduler.pick` selects the process to run *now*;
- :meth:`Scheduler.charge` accounts CPU consumed by the running process;
- :meth:`Scheduler.time_until_internal_event` bounds how long the current
  pick may run before the scheduler itself wants control back (budget
  exhaustion, time-slice expiry); releases and wake-ups arrive through the
  kernel's event calendar instead.

Schedulers that need timed callbacks (CBS budget replenishment) receive the
kernel handle via :meth:`Scheduler.bind`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process


class Scheduler(abc.ABC):
    """Abstract scheduling policy."""

    #: Fast-forward conformance declaration: the ``cycle_*`` methods this
    #: class *intentionally* leaves to the base defaults.  A concrete
    #: scheduler must implement the rest of the ``cycle_state``/
    #: ``shift_times``/``cycle_periods``/``cycle_counters`` surface —
    #: silent reliance on the defaults is indistinguishable from having
    #: forgotten them.  ``tests/sched/test_cycle_surface.py`` checks every
    #: scheduler class against this contract.
    cycle_defaults_ok: ClassVar[tuple[str, ...]] = ()

    def __init__(self) -> None:
        self.kernel: Kernel | None = None

    def bind(self, kernel: Kernel) -> None:
        """Attach to a kernel (called once by :class:`~repro.sim.kernel.Kernel`)."""
        self.kernel = kernel

    @abc.abstractmethod
    def on_ready(self, proc: Process, now: int) -> None:
        """``proc`` became runnable at ``now`` (admission or wake-up)."""

    @abc.abstractmethod
    def on_block(self, proc: Process, now: int) -> None:
        """``proc`` blocked at ``now``."""

    def on_exit(self, proc: Process, now: int) -> None:
        """``proc`` exited at ``now``; default defers to :meth:`on_block`."""
        self.on_block(proc, now)

    @abc.abstractmethod
    def pick(self, now: int) -> Process | None:
        """Return the process that should occupy the CPU at ``now``."""

    @abc.abstractmethod
    def charge(self, proc: Process, delta: int, now: int) -> None:
        """Account ``delta`` ns of CPU just consumed by ``proc`` ending at ``now``.

        One call may cover several of the process's segments: while
        :meth:`repro.sim.kernel.Kernel.run` chains them under the bound
        :meth:`time_until_internal_event` returned, it charges their CPU
        in one call where scheduler state is read (when the chain reaches
        its limit, before the next instruction is fetched; before every
        :meth:`on_ready`, :meth:`on_block`, :meth:`on_exit` and Label
        probe; when the chain ends).  That is sound only under the
        composition clause stated there: charges that stay within the
        bound add up.
        """

    def time_until_internal_event(self, proc: Process, now: int) -> int | None:
        """Upper bound (ns from ``now``) on how long ``proc`` may run
        before this scheduler needs to re-decide; ``None`` means no bound.

        The kernel chains the picked process's segments on this bound
        (:meth:`repro.sim.kernel.Kernel.run`), so an integer ``b`` for the
        process :meth:`pick` just returned is a promise: after
        ``charge(proc, d, now + d)`` with ``0 < d < b``, and with no
        :meth:`on_ready`/:meth:`on_block`/:meth:`on_exit` or calendar
        event in between, ``pick(now + d)`` returns the same process and
        ``time_until_internal_event(proc, now + d)`` returns ``b - d``.
        The kernel skips those two calls, so they must not change the
        policy's state either.  A policy that cannot promise this returns
        ``None``, and the kernel re-picks after every segment.

        The bound also lets the kernel merge charges.  For ``0 < d1``
        with ``d1 + d2 <= b``, and with no :meth:`on_ready`/
        :meth:`on_block`/:meth:`on_exit` or calendar event in between,
        ``charge(proc, d1, now + d1)`` then ``charge(proc, d2, now + d1 +
        d2)`` must leave the same policy state as ``charge(proc, d1 + d2,
        now + d1 + d2)``: cycle state, counters, exhaustion hook calls
        and calendar pushes.  A policy that acts only when a budget,
        slice or quantum reaches zero, and counts consumed time by
        addition, satisfies it, since the bound puts that instant at the
        end of the chain (:meth:`repro.sim.kernel.Kernel._settle`).
        """
        return None

    # ------------------------------------------------------------------
    # schedule-cycle support (:mod:`repro.sim.cycles`)
    # ------------------------------------------------------------------
    def cycle_state(self, now: int) -> object | None:
        """Digestible policy state, with absolute times relative to ``now``.

        Two instants with equal :func:`repro.sim.cycles.state_digest` must
        behave identically forever, so everything the policy's future
        decisions depend on belongs here (ready-queue order, budgets,
        deadlines-minus-now, slice remainders).  Monotone output counters
        (consumed time, exhaustion tallies) must be left out — they grow
        without bound and are extrapolated separately via
        :meth:`cycle_counters`.  ``None`` (the default) marks the policy as
        unsupported: fast-forward auto-disables.
        """
        return None

    def shift_times(self, delta: int) -> None:
        """Shift every absolute-time field ``delta`` ns into the future.

        Called once per fast-forward skip, after the kernel clock and event
        calendar have been relocated.  The default is a no-op for policies
        that keep no absolute times (FP, RR, stride).
        """

    def cycle_periods(self) -> tuple[int, ...]:
        """Policy-internal periods to fold into the hyperperiod (CBS server
        periods); default none."""
        return ()

    def cycle_counters(self) -> dict[str, int]:
        """Monotone output counters excluded from :meth:`cycle_state`.

        Keyed by a stable name; the fast-forward extrapolation replays one
        cycle's deltas via :meth:`advance_cycle_counters`.
        """
        return {}

    def advance_cycle_counters(self, deltas: dict[str, int], cycles: int) -> None:
        """Add ``cycles`` extra repetitions of per-cycle counter ``deltas``."""


class SmpScheduler(Scheduler):
    """A scheduler that can occupy several CPUs at once.

    Used with :class:`repro.sim.multicore.MultiCoreKernel`: at every
    decision point the kernel asks for the ``n`` processes to run.
    """

    @abc.abstractmethod
    def pick_n(self, now: int, n: int) -> list[Process | None]:
        """Return the processes to run on CPUs ``0..n-1`` (None = idle).

        The returned processes must be distinct and runnable.
        """

    def pick(self, now: int) -> Process | None:
        """Uniprocessor compatibility: the most urgent pick."""
        return self.pick_n(now, 1)[0]
