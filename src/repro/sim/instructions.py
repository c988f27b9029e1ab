"""Instructions yielded by process programs.

A *program* is a Python generator.  Each ``yield`` hands the kernel one
instruction; the kernel executes it (consuming virtual CPU time, possibly
blocking the process) and resumes the generator with the completion
timestamp, so programs can be written in a natural imperative style::

    def body():
        t = yield Compute(2 * MS)                      # burn CPU
        t = yield Syscall(SyscallNr.WRITE)             # non-blocking call
        t = yield Syscall(SyscallNr.CLOCK_NANOSLEEP,
                          block=SleepUntil(next_release))

Blocking semantics mirror Linux: a blocking system call consumes its kernel
entry cost, suspends the process, and *returns* (the tracer's syscall-exit
event fires) only after the process has been woken and scheduled again.
"""

from __future__ import annotations

from repro.sim.syscalls import SyscallNr, default_cost  # noqa: F401 - re-export


class BlockSpec:
    """Base class for the ways a syscall can suspend its caller.

    The block specs are plain ``__slots__`` classes (not dataclasses):
    periodic workloads build a ``SleepUntil`` per job.  They compare, hash
    and print as the frozen dataclasses they replace, and are never
    mutated: a program may yield one object many times.
    """

    __slots__ = ()


class SleepUntil(BlockSpec):
    """Block until the absolute virtual time ``wake_at`` (ns)."""

    __slots__ = ("wake_at",)

    def __init__(self, wake_at: int) -> None:
        self.wake_at = wake_at

    def __repr__(self) -> str:
        return f"SleepUntil(wake_at={self.wake_at!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not SleepUntil:
            return NotImplemented
        return self.wake_at == other.wake_at

    def __hash__(self) -> int:
        return hash((self.wake_at,))


class SleepFor(BlockSpec):
    """Block for ``duration`` ns measured from the moment of blocking."""

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        self.duration = duration

    def __repr__(self) -> str:
        return f"SleepFor(duration={self.duration!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not SleepFor:
            return NotImplemented
        return self.duration == other.duration

    def __hash__(self) -> int:
        return hash((self.duration,))


class WaitEvent(BlockSpec):
    """Block until :meth:`repro.sim.kernel.Kernel.fire_event` is called
    with the same ``key`` (models pipes, device readiness, futexes...)."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __repr__(self) -> str:
        return f"WaitEvent(key={self.key!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not WaitEvent:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash((self.key,))


class Instruction:
    """Base class of everything a program may yield.

    Instructions compare and hash by identity; only the block specs
    compare by value.
    """

    __slots__ = ()


class Compute(Instruction):
    """Consume ``duration`` ns of user-mode CPU time.

    Plain ``__slots__`` class (not a dataclass): workload generators yield
    one of these per compute slab, so construction is on the simulator's
    hottest path.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"compute duration must be >= 0, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Compute(duration={self.duration})"


class Syscall(Instruction):
    """Invoke system call ``nr``.

    Parameters
    ----------
    nr:
        Which call (drives tracing and statistics).
    cost:
        In-kernel CPU cost in ns; defaults to the per-call table in
        :mod:`repro.sim.syscalls`.
    block:
        If set, the call suspends the process after consuming ``cost``.
    return_cost:
        Kernel CPU spent on the return path after a wake-up (only used for
        blocking calls); the syscall-exit trace event fires when it is done.
    """

    __slots__ = ("nr", "cost", "block", "return_cost")

    def __init__(
        self,
        nr: SyscallNr,
        cost: int = -1,
        block: BlockSpec | None = None,
        return_cost: int = 500,
    ) -> None:
        if return_cost < 0:
            raise ValueError("return_cost must be >= 0")
        self.nr = nr
        # the member's own attribute, not a lookup keyed on the enum: one
        # Syscall is built per call a workload issues
        self.cost = nr.default_ns if cost < 0 else cost
        self.block = block
        self.return_cost = return_cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Syscall(nr={self.nr}, cost={self.cost}, block={self.block!r}, "
            f"return_cost={self.return_cost})"
        )


class Fire(Instruction):
    """Wake any processes blocked on ``WaitEvent(key)``; costs no time.

    Lets one program act as a producer for another (e.g. a decoder thread
    feeding an output thread).
    """

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fire(key={self.key!r})"


class Label(Instruction):
    """Zero-time annotation; the kernel invokes registered probes.

    Workloads use labels to expose application-level instants (a video
    player marks ``"frame_displayed"``) that the metrics layer turns into
    the paper's inter-frame-time series without perturbing the simulation.
    """

    __slots__ = ("name", "payload")

    def __init__(self, name: str, payload: dict | None = None) -> None:
        self.name = name
        self.payload = {} if payload is None else payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Label(name={self.name!r}, payload={self.payload!r})"
