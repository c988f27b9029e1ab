"""System-call taxonomy.

The paper's tracer records every system call of the monitored process;
Figure 4 shows the observed mix for mplayer (dominated by ``ioctl`` calls
into ALSA).  We model the calls that appear in those traces plus the ones
the analysis needs (``clock_nanosleep`` as the canonical job-delimiting
blocker).

Each call carries a *default kernel cost* — the CPU time spent inside the
kernel servicing it when nothing blocks.  Workload models may override the
cost per invocation; the defaults are plausible microsecond-scale figures
for a 2008-era x86 kernel and only matter for overhead accounting, never
for correctness of the period analysis.
"""

from __future__ import annotations

from enum import Enum, unique

from repro.sim.time import US


@unique
class SyscallNr(Enum):
    """The system calls the simulator knows about."""

    IOCTL = "ioctl"
    READ = "read"
    WRITE = "write"
    CLOCK_NANOSLEEP = "clock_nanosleep"
    NANOSLEEP = "nanosleep"
    CLOCK_GETTIME = "clock_gettime"
    GETTIMEOFDAY = "gettimeofday"
    SELECT = "select"
    POLL = "poll"
    FUTEX = "futex"
    MUNMAP = "munmap"
    MMAP = "mmap"
    LSEEK = "lseek"
    OPEN = "open"
    CLOSE = "close"
    STAT = "stat"
    FSTAT = "fstat"
    BRK = "brk"
    RT_SIGACTION = "rt_sigaction"
    WRITEV = "writev"
    QRES_GET_TIME = "qres_get_time"

    #: the member's entry in :data:`DEFAULT_COST_NS`, set once below
    default_ns: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default in-kernel CPU cost of each call, in nanoseconds.
DEFAULT_COST_NS: dict[SyscallNr, int] = {
    SyscallNr.IOCTL: 3 * US,
    SyscallNr.READ: 2 * US,
    SyscallNr.WRITE: 2 * US,
    SyscallNr.CLOCK_NANOSLEEP: 2 * US,
    SyscallNr.NANOSLEEP: 2 * US,
    SyscallNr.CLOCK_GETTIME: 1 * US,
    SyscallNr.GETTIMEOFDAY: 1 * US,
    SyscallNr.SELECT: 3 * US,
    SyscallNr.POLL: 3 * US,
    SyscallNr.FUTEX: 2 * US,
    SyscallNr.MUNMAP: 4 * US,
    SyscallNr.MMAP: 4 * US,
    SyscallNr.LSEEK: 1 * US,
    SyscallNr.OPEN: 5 * US,
    SyscallNr.CLOSE: 2 * US,
    SyscallNr.STAT: 3 * US,
    SyscallNr.FSTAT: 2 * US,
    SyscallNr.BRK: 2 * US,
    SyscallNr.RT_SIGACTION: 1 * US,
    SyscallNr.WRITEV: 2 * US,
    SyscallNr.QRES_GET_TIME: 1 * US,
}


# an attribute read instead of a table lookup: ``Syscall`` reads the
# default once per call built, and hashing a member calls the
# Python-level ``Enum.__hash__``
for _nr, _cost in DEFAULT_COST_NS.items():
    _nr.default_ns = _cost
del _nr, _cost


def default_cost(nr: SyscallNr) -> int:
    """Kernel CPU cost (ns) of ``nr`` when the caller does not override it."""
    return DEFAULT_COST_NS[nr]
