"""Overhead models of the ``ptrace()``-based baselines (Table 1).

``strace`` and the authors' earlier ``qostrace`` both stop the monitored
process at every system call: the kernel suspends it, wakes the tracer to
inspect the registers (or just read the clock), and resumes the monitored
process.  That costs *two context switches per traced call* plus whatever
work the tracer does while scheduled — a structural floor the paper's
qtrace avoids entirely ("the system has to execute two context switches
whose duration is a lower bound for the overhead of any solution based on
ptrace()").

We model that cost as extra latency charged on the traced process at every
syscall entry and exit.  ``strace`` additionally decodes and formats the
arguments (expensive); ``qostrace`` only grabs a timestamp (cheap), which
is why the paper measured 5.51% vs 2.69% overhead for them.

The per-stop work figures are calibrated constants (we cannot run the real
tools); the *ordering* and the rough magnitudes in Table 1 follow from the
2-switches-per-call structure, not from tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.process import Process
from repro.sim.syscalls import SyscallNr
from repro.sim.time import US
from repro.tracer.events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Kernel


@dataclass
class PtraceTracer:
    """A ptrace-style tracer: per-stop context switches plus tracer work."""

    name: str
    #: cost of one context switch, ns
    context_switch_cost: int = 2_000
    #: tracer-side CPU per syscall *stop* (entry or exit), ns
    per_stop_work: int = 4 * US
    #: whether exit stops are taken too (ptrace always stops on both)
    stop_on_exit: bool = True
    pids: set[int] = field(default_factory=set)
    #: recorded events (ptrace tools see the stream directly, no ring buffer)
    events: list[TraceEvent] = field(default_factory=list)
    record: bool = True
    #: kernels this tracer is attached to, told of traced-set changes
    _kernels: list[Kernel] = field(default_factory=list, init=False, repr=False, compare=False)

    def trace_pid(self, pid: int) -> None:
        """Start tracing process ``pid``."""
        self.pids.add(pid)
        for kernel in self._kernels:
            kernel.tracing_changed()

    def bind(self, kernel: Kernel) -> None:
        self._kernels.append(kernel)

    def traces(self, proc: Process) -> bool:
        return proc.pid in self.pids

    def _stop_cost(self) -> int:
        # switch to the tracer, tracer does its work, switch back
        return 2 * self.context_switch_cost + self.per_stop_work

    def on_syscall_entry(self, proc: Process, nr: SyscallNr, now: int) -> int:
        if proc.pid not in self.pids:
            return 0
        if self.record:
            self.events.append(TraceEvent(now, proc.pid, nr, EventKind.SYSCALL_ENTRY))
        return self._stop_cost()

    def on_syscall_exit(self, proc: Process, nr: SyscallNr, now: int) -> int:
        if proc.pid not in self.pids or not self.stop_on_exit:
            return 0
        if self.record:
            self.events.append(TraceEvent(now, proc.pid, nr, EventKind.SYSCALL_EXIT))
        return self._stop_cost()


def strace(*, context_switch_cost: int = 2_000) -> PtraceTracer:
    """The stock ``strace`` tool: full argument decoding at every stop."""
    return PtraceTracer(
        name="strace",
        context_switch_cost=context_switch_cost,
        per_stop_work=6_400,
        stop_on_exit=True,
    )


def qostrace(*, context_switch_cost: int = 2_000) -> PtraceTracer:
    """The authors' earlier lightweight ptrace tracer ([8]): timestamp only."""
    return PtraceTracer(
        name="qostrace",
        context_switch_cost=context_switch_cost,
        per_stop_work=1_000,
        stop_on_exit=True,
    )
