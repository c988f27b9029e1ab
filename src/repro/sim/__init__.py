"""Deterministic discrete-event kernel simulator.

This package is the substrate that stands in for the patched Linux 2.6.29
kernel used by the paper.  It provides:

- a nanosecond-resolution virtual clock and event calendar (:mod:`.engine`),
- a process model whose *programs* are Python generators yielding
  :class:`~repro.sim.instructions.Compute` / :class:`~repro.sim.instructions.Syscall`
  instructions, alone or as :class:`~repro.sim.instructions.Burst` runs
  (:mod:`.process`, :mod:`.instructions`),
- a syscall taxonomy mirroring the calls observed in the paper's traces
  (:mod:`.syscalls`),
- a single-CPU kernel that ties processes, a pluggable scheduler, tracers
  and timers together (:mod:`.kernel`).

Everything is deterministic: given the same seeds and parameters a run
produces byte-identical traces, which is what makes the paper's statistical
experiments (100-repetition PMFs etc.) reproducible.
"""

from repro.sim.engine import EventQueue, ScheduledEvent
from repro.sim.instructions import (
    BlockSpec,
    Burst,
    Compute,
    Instruction,
    SleepFor,
    SleepUntil,
    Syscall,
    WaitEvent,
)
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.multicore import MultiCoreKernel, SmpScheduler
from repro.sim.process import Process, ProcState
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS, NS, SEC, US, fmt_time

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "Instruction",
    "Compute",
    "Syscall",
    "Burst",
    "BlockSpec",
    "SleepUntil",
    "SleepFor",
    "WaitEvent",
    "Kernel",
    "KernelConfig",
    "MultiCoreKernel",
    "SmpScheduler",
    "Process",
    "ProcState",
    "SyscallNr",
    "NS",
    "US",
    "MS",
    "SEC",
    "fmt_time",
]
