"""Process model.

A :class:`Process` wraps a program generator plus the bookkeeping the kernel
needs: scheduling state, the currently executing segment, and accounting of
consumed CPU time (the ``CLOCK_PROCESS_CPUTIME_ID`` equivalent that the
paper's LFS++ sensor reads) and of wake-up→dispatch latency.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Generator, Sequence
from itertools import cycle, islice

from repro.sim.instructions import BlockSpec, Instruction, Syscall

Program = Generator[Instruction, int, None]


class ProcState(enum.Enum):
    """Scheduling state of a process."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


class SegmentKind(enum.Enum):
    """What kind of work the current segment represents."""

    USER = "user"  # user-mode compute
    SYSCALL = "syscall"  # in-kernel portion of a system call
    SYSCALL_RETURN = "syscall_return"  # return path after a blocking call


class Segment:
    """A contiguous slab of CPU work the process still has to perform.

    Every process owns one for life (:attr:`Process.own_segment`), and
    the kernel refills it in place for each new slab of work instead of
    allocating: segments are made on the hottest path of the simulator.
    Nothing may keep a reference to a segment across a refill.
    """

    __slots__ = ("kind", "remaining", "syscall", "block", "entry_time")

    def __init__(
        self,
        kind: SegmentKind,
        remaining: int,
        syscall: Syscall | None = None,
        block: BlockSpec | None = None,
        entry_time: int = -1,  # when the syscall entry was stamped
    ) -> None:
        self.refill(kind, remaining, syscall, block, entry_time)

    def refill(
        self,
        kind: SegmentKind,
        remaining: int,
        syscall: Syscall | None = None,
        block: BlockSpec | None = None,
        entry_time: int = -1,
    ) -> Segment:
        """Turn this segment into the next slab of work; returns it."""
        self.kind = kind
        self.remaining = remaining
        self.syscall = syscall
        self.block = block
        self.entry_time = entry_time
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Segment(kind={self.kind}, remaining={self.remaining}, "
            f"syscall={self.syscall!r}, block={self.block!r}, "
            f"entry_time={self.entry_time})"
        )


@functools.lru_cache(maxsize=1024)
def _replay(
    n: int, mean_hex: str, m2_hex: str, samples: tuple[int, ...], times: int
) -> tuple[float, float]:
    """Welford mean and M2 after ``samples`` arrive ``times`` over, from
    ``n`` samples whose mean and M2 have the exact bits ``mean_hex`` and
    ``m2_hex`` (:meth:`float.hex`).

    A pure function of its arguments, so the cache returns the floats
    the loop would compute, bit for bit.  Keying on the bits, not the
    floats, keeps ``0.0`` and ``-0.0`` apart.  The loop runs on samples
    converted to float once (the conversion ``latency - mean`` would make
    at every step) and a float running count, which ``delta / n`` would
    otherwise convert at every step (exact below 2**53).
    """
    values = [float(latency) for latency in samples]
    count, mean, m2 = float(n), float.fromhex(mean_hex), float.fromhex(m2_hex)
    for latency in islice(cycle(values), times * len(values)):
        count += 1.0
        delta = latency - mean
        mean += delta / count
        m2 += delta * (latency - mean)
    return mean, m2


class LatencyStats:
    """Wake-up→dispatch latency accumulator (ns)."""

    __slots__ = ("n", "total", "max", "_m2", "_mean")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.max = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, latency: int) -> None:
        """Record one wake-up latency."""
        self.n += 1
        self.total += latency
        self.max = max(self.max, latency)
        delta = latency - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (latency - self._mean)

    def add_cycles(self, samples: Sequence[int], times: int) -> None:
        """Record ``samples`` ``times`` over, bit-for-bit as that many
        rounds of :meth:`add` (fast-forward's replay of skipped cycles).

        ``total``, ``max`` and ``n`` are closed-form.  The Welford floats
        round differently at every step, so they come from
        :func:`_replay`, which runs each distinct replay once per
        process: nodes of one fleet cell that settle into the same cycle
        from the same transient share it.  Subclasses that extend
        :meth:`add` extend this too.
        """
        if not samples or times <= 0:
            return
        self.total += times * sum(samples)
        self.max = max(self.max, max(samples))
        self._mean, self._m2 = _replay(
            self.n, self._mean.hex(), self._m2.hex(), tuple(samples), times
        )
        self.n += times * len(samples)

    @property
    def mean(self) -> float:
        """Average latency, ns (0 before any sample)."""
        return self._mean if self.n else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation, ns."""
        return math.sqrt(self._m2 / (self.n - 1)) if self.n > 1 else 0.0


class Process:
    """A simulated process (or thread; the model does not distinguish).

    ``__slots__`` because the kernel touches ``state``/``segment``/
    ``cpu_time``/... several times per scheduling decision.
    """

    __slots__ = (
        "pid",
        "name",
        "program",
        "state",
        "segment",
        "cpu_time",
        "exit_time",
        "start_time",
        "syscall_count",
        "sched_data",
        "started",
        "crash",
        "sched_latency",
        "woken_at",
        "own_segment",
    )

    def __init__(self, pid: int, name: str, program: Program) -> None:
        self.pid = pid
        self.name = name
        self.program = program
        self.state = ProcState.NEW
        #: the work in progress: :attr:`own_segment` while the process
        #: has CPU work pending, None when an instruction must be fetched
        #: through ``Kernel._advance``, the out-of-line path
        #: (``Kernel.run``'s inline fetch keeps the finished segment here
        #: until the next instruction refills it)
        self.segment: Segment | None = None
        #: the one segment the kernel refills for this process
        self.own_segment = Segment(SegmentKind.USER, 0)
        #: total CPU time consumed (user + kernel), ns
        self.cpu_time = 0
        #: wall-clock time the process exited, or None while alive
        self.exit_time: int | None = None
        #: wall-clock time the process was admitted to the kernel
        self.start_time: int | None = None
        #: number of completed system calls
        self.syscall_count = 0
        #: opaque slot for the scheduler (run-queue node, server ref, ...)
        self.sched_data: object | None = None
        #: whether the program generator has been started (first ``next``)
        self.started = False
        #: the exception that killed the program, if any (see
        #: :attr:`crashed`); a well-behaved exit leaves it None
        self.crash: BaseException | None = None
        #: wake-up→dispatch latency accounting (filled by the kernel)
        self.sched_latency = LatencyStats()
        #: timestamp of the pending wake-up not yet dispatched, if any
        self.woken_at: int | None = None

    @property
    def crashed(self) -> bool:
        """True when the program died on an uncaught exception."""
        return self.crash is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Process(pid={self.pid}, name={self.name!r}, state={self.state.value})"

    @property
    def alive(self) -> bool:
        """True until the program generator is exhausted."""
        return self.state is not ProcState.EXITED

    @property
    def runnable(self) -> bool:
        """True when the process can be picked by the scheduler."""
        return self.state in (ProcState.READY, ProcState.RUNNING)
