"""Steady-state fast-forward via schedule-cycle detection.

Grolleau, Goossens & Cucu-Grosjean prove that a deterministic memoryless
scheduler running a periodic task set enters a *cyclic schedule*: once the
complete simulator state repeats, every future hyperperiod is a verbatim
replay of the last one, shifted in time.  Long steady-state horizons (the
paper's Table 2/3 sweeps) therefore spend almost all of their wall-clock
time re-deriving known switches.

This module exploits that theorem without giving up bit-identity:

1. the run is *chunked* at hyperperiod boundaries (LCM of all workload and
   server periods) using ``Kernel.run(..., stop_before_switch=True)``, so
   chunked stepping is indistinguishable from one monolithic ``run``;
2. at each boundary a :func:`state_digest` is taken — event-calendar shape,
   per-process program positions and block states, scheduler state with
   absolute times normalised against ``now``, and workload RNG/phase state;
3. when a digest repeats, the simulation stops stepping and *extrapolates*:
   the recorded cycle's switch trace is replayed ``K`` more times with
   time offsets, its latency samples go to each process's accumulator
   as one ``add_cycles(samples, K)`` call, monotone counters advance by
   ``K`` times their per-cycle delta, and every absolute-time field
   (clock, calendar, deadlines, pending sleeps) shifts by
   ``K * cycle_len``;
4. the residual partial cycle runs normally.

Eligibility is deliberately strict — anything the digest cannot prove
equivalent (tracers, telemetry, label probes, latency or exhaustion hooks,
fault plans, aperiodic processes, unsupported schedulers, foreign calendar
callbacks) disables the fast path and the run completes normally,
bit-identical to a plain run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any
from weakref import WeakKeyDictionary

import numpy as np

from repro.sim.instructions import SleepFor, SleepUntil, WaitEvent
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Program, Segment
from repro.sim.time import hyperperiod

#: a cycle can only be detected *and* pay off if at least this many
#: hyperperiod boundaries fit between the current clock and the horizon
MIN_BOUNDARIES = 3


class CycleIneligible(Exception):
    """A run (or an instant within it) cannot be safely fast-forwarded."""


class GridIndex:
    """Mutable release-grid position shared between a program body and its
    fast-forward adapter.

    Program generators must re-read :attr:`index` at *every* use instead of
    caching it in a local, so :meth:`advance` relocates the program on its
    release grid when whole schedule cycles are skipped.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index = 0

    def advance(self, jobs: int) -> None:
        """Jump ``jobs`` positions forward on the release grid."""
        self.index += jobs


@dataclass
class ProgramCycleInfo:
    """What the fast-forward layer needs to know about one program.

    Workload factories register one of these per generator via
    :func:`register_cycle_adapter`.
    """

    #: release-grid period in ns; ``None`` marks the program aperiodic
    #: (or otherwise un-extrapolatable) and disables fast-forward for any
    #: run containing it
    period: int | None
    #: current job index on the release grid
    get_index: Callable[[], int] | None = None
    #: jump the program ``jobs`` releases forward (counters included)
    advance: Callable[[int], None] | None = None
    #: total jobs the program will run, ``None`` = unbounded; finite
    #: programs enter the digest with their remaining-job count, so runs
    #: that drain a workload never falsely match
    jobs_total: int | None = None
    #: the program's RNG, if it draws any randomness; its bit-generator
    #: state enters the digest, so jittered workloads never match (their
    #: schedule genuinely never repeats)
    rng: np.random.Generator | None = None
    #: extra digestible position state (within-frame slot, queue depth...)
    extra_state: Callable[[], tuple[object, ...]] | None = None


_ADAPTERS: WeakKeyDictionary[Program, ProgramCycleInfo] = WeakKeyDictionary()


def register_cycle_adapter(program: Program, info: ProgramCycleInfo) -> Program:
    """Associate ``info`` with ``program``; returns ``program`` for chaining."""
    _ADAPTERS[program] = info
    return program


def cycle_adapter_of(program: Program) -> ProgramCycleInfo | None:
    """The registered adapter of ``program``, if any."""
    return _ADAPTERS.get(program)


# ----------------------------------------------------------------------
# state digest
# ----------------------------------------------------------------------
def _event_entry(kernel: Kernel, ev: Any, now: int) -> tuple[object, ...]:
    """Digest one calendar entry, or refuse if its callback is foreign."""
    cb = ev.callback
    if cb == kernel._wake_event:
        return (ev.time - now, "wake", ev.payload.pid)
    if cb == kernel._admit_event:
        return (ev.time - now, "admit", ev.payload.pid)
    replenish = getattr(kernel.scheduler, "_replenish_event", None)
    if replenish is not None and cb == replenish:
        return (ev.time - now, "replenish", ev.payload.sid)
    raise CycleIneligible(f"calendar holds an un-digestible callback {cb!r}")


def _segment_entry(segment: Segment | None, now: int) -> tuple[object, ...] | None:
    """Digest a process's current CPU segment relative to ``now``."""
    if segment is None:
        return None
    block = segment.block
    block_entry: tuple[object, ...] | None
    if block is None:
        block_entry = None
    elif isinstance(block, SleepUntil):
        block_entry = ("until", block.wake_at - now)
    elif isinstance(block, SleepFor):
        block_entry = ("for", block.duration)
    elif isinstance(block, WaitEvent):
        block_entry = ("event", block.key)
    else:
        raise CycleIneligible(f"unknown block spec {block!r}")
    syscall_nr = "" if segment.syscall is None else segment.syscall.nr.name
    entry_time = segment.entry_time - now if segment.entry_time >= 0 else -1
    return (segment.kind.value, segment.remaining, syscall_nr, block_entry, entry_time)


def _adapter_entry(info: ProgramCycleInfo) -> tuple[object, ...]:
    """Digest a program's grid position, remaining jobs and RNG state."""
    remaining: object = None
    if info.jobs_total is not None:
        index = info.get_index() if info.get_index is not None else 0
        remaining = info.jobs_total - index
    extra = info.extra_state() if info.extra_state is not None else ()
    rng_state = "" if info.rng is None else repr(info.rng.bit_generator.state)
    return (info.period, remaining, extra, rng_state)


def state_digest(kernel: Kernel, now: int) -> str:
    """SHA-256 over everything the simulator's future depends on.

    Absolute times are stored relative to ``now``; monotone output
    counters (CPU time, syscall tallies, consumed budget) are excluded —
    they are extrapolated separately.  Raises :class:`CycleIneligible`
    when any state component cannot be digested safely.
    """
    scheduler_state = kernel.scheduler.cycle_state(now)
    if scheduler_state is None:
        raise CycleIneligible(
            f"scheduler {type(kernel.scheduler).__name__} has no cycle_state()"
        )
    events = tuple(_event_entry(kernel, ev, now) for ev in kernel.events.snapshot())
    waiters = tuple(
        (key, tuple(p.pid for p in kernel._waiters[key]))
        for key in sorted(kernel._waiters)
        if kernel._waiters[key]
    )
    procs: list[tuple[object, ...]] = []
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        if not proc.alive:
            procs.append((pid, "exited"))
            continue
        info = cycle_adapter_of(proc.program)
        if info is None:
            raise CycleIneligible(f"process {proc.name!r} has no cycle adapter")
        if info.period is None:
            raise CycleIneligible(f"process {proc.name!r} is aperiodic")
        procs.append(
            (
                pid,
                proc.state.value,
                proc.started,
                proc.woken_at - now if proc.woken_at is not None else None,
                _segment_entry(proc.segment, now),
                _adapter_entry(info),
            )
        )
    current = kernel._current
    state = (
        events,
        waiters,
        current.pid if current is not None else -1,
        tuple(procs),
        scheduler_state,
    )
    return sha256(repr(state).encode()).hexdigest()


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------
def eligibility_reason(kernel: Kernel) -> str | None:
    """Why ``kernel`` cannot be fast-forwarded, or ``None`` if it can."""
    if type(kernel) is not Kernel:
        return f"{type(kernel).__name__} is not a uniprocessor Kernel"
    if kernel.tracers:
        return "syscall tracers attached"
    if kernel._label_probes:
        return "label probes attached"
    if kernel._obs is not None:
        return "telemetry hub attached"
    if kernel.fault_plan is not None:
        return "fault plan attached"
    reason = _observer_reason(kernel)
    if reason is not None:
        return reason
    if kernel.scheduler.cycle_state(kernel.clock) is None:
        return f"scheduler {type(kernel.scheduler).__name__} has no cycle_state()"
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        if not proc.alive:
            continue
        info = cycle_adapter_of(proc.program)
        if info is None:
            return f"process {proc.name!r} has no cycle adapter"
        if info.period is None:
            return f"process {proc.name!r} is aperiodic"
    return None


def _observer_reason(kernel: Kernel, own_latency_hook: object = None) -> str | None:
    """Name an attached hook that skipping cycles would starve, if any.

    Skipped cycles replay ``switch_hook`` calls only, so a latency or
    exhaustion hook would miss every call of the skipped span.
    ``own_latency_hook`` is the sample logger of :func:`run_fast_forward`.
    """
    if kernel.latency_hook is not own_latency_hook:
        return "latency hook attached"
    servers = getattr(kernel.scheduler, "servers", {})
    for sid in sorted(servers):
        if servers[sid].exhaustion_hook is not None:
            return f"exhaustion hook attached to server {servers[sid].name!r}"
    return None


def kernel_hyperperiod(kernel: Kernel) -> int:
    """LCM of every live program period and scheduler-internal period."""
    periods: list[int] = []
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        if not proc.alive:
            continue
        info = cycle_adapter_of(proc.program)
        if info is not None and info.period is not None:
            periods.append(info.period)
    periods.extend(kernel.scheduler.cycle_periods())
    return hyperperiod(periods)


# ----------------------------------------------------------------------
# extrapolation machinery
# ----------------------------------------------------------------------
@dataclass
class _BoundarySnapshot:
    """Monotone-counter values at one hyperperiod boundary."""

    switch_len: int
    latency_len: int
    stats: tuple[int, int, int, int, int]
    proc_counters: dict[int, tuple[int, int]]
    adapter_index: dict[int, int]
    sched_counters: dict[str, int]


def _take_snapshot(
    kernel: Kernel,
    switch_log: list[tuple[Process, int]],
    latency_log: list[tuple[Process, int]],
) -> _BoundarySnapshot:
    proc_counters: dict[int, tuple[int, int]] = {}
    adapter_index: dict[int, int] = {}
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        proc_counters[pid] = (proc.cpu_time, proc.syscall_count)
        info = cycle_adapter_of(proc.program)
        if info is not None and info.get_index is not None:
            adapter_index[pid] = info.get_index()
    stats = kernel.stats
    return _BoundarySnapshot(
        switch_len=len(switch_log),
        latency_len=len(latency_log),
        stats=(
            stats.context_switches,
            stats.idle_time,
            stats.busy_time,
            stats.syscalls,
            stats.dispatched_events,
        ),
        proc_counters=proc_counters,
        adapter_index=adapter_index,
        sched_counters=kernel.scheduler.cycle_counters(),
    )


def _skip_cycles(
    kernel: Kernel,
    snap: _BoundarySnapshot,
    switch_log: list[tuple[Process, int]],
    switch_hook: Callable[[Process, int], None] | None,
    latency_log: list[tuple[Process, int]],
    cycle_len: int,
    cycles: int,
) -> None:
    """Advance the simulation ``cycles * cycle_len`` ns analytically.

    The kernel sits at the end of a detected cycle whose start was
    snapshotted in ``snap``; every observable output of the skipped span
    is replayed (switch trace), folded in ``cycles`` times over (each
    process's latency samples, through ``add_cycles``) or scaled
    (monotone counters), and every absolute-time field is shifted.
    """
    delta = cycles * cycle_len
    # replay the cycle's switch trace K more times with time offsets
    cycle_switches = switch_log[snap.switch_len :]
    if switch_hook is not None:
        for k in range(1, cycles + 1):
            offset = k * cycle_len
            for proc, timestamp in cycle_switches:
                switch_hook(proc, timestamp + offset)
    # kernel-level monotone counters: += K * per-cycle delta
    stats = kernel.stats
    stats.context_switches += cycles * (stats.context_switches - snap.stats[0])
    stats.idle_time += cycles * (stats.idle_time - snap.stats[1])
    stats.busy_time += cycles * (stats.busy_time - snap.stats[2])
    stats.syscalls += cycles * (stats.syscalls - snap.stats[3])
    stats.dispatched_events += cycles * (stats.dispatched_events - snap.stats[4])
    # per-process counters, latency samples and release-grid positions
    cycle_latency: dict[int, list[int]] = {}
    for proc, latency in latency_log[snap.latency_len :]:
        cycle_latency.setdefault(proc.pid, []).append(latency)
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        counters = snap.proc_counters.get(pid)
        if counters is not None:
            proc.cpu_time += cycles * (proc.cpu_time - counters[0])
            proc.syscall_count += cycles * (proc.syscall_count - counters[1])
        samples = cycle_latency.get(pid)
        if samples is not None:
            proc.sched_latency.add_cycles(samples, cycles)
        info = cycle_adapter_of(proc.program)
        if info is not None and info.get_index is not None and pid in snap.adapter_index:
            jobs = info.get_index() - snap.adapter_index[pid]
            if jobs and info.advance is not None:
                info.advance(cycles * jobs)
    # scheduler output counters (CBS consumed/exhaustions)
    counters_now = kernel.scheduler.cycle_counters()
    deltas = {
        key: counters_now[key] - snap.sched_counters.get(key, 0)
        for key in sorted(counters_now)
    }
    kernel.scheduler.advance_cycle_counters(deltas, cycles)
    # relocate every absolute time: clock, calendar, scheduler, processes
    kernel.clock += delta
    kernel.events.shift_times(delta)
    kernel.scheduler.shift_times(delta)
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        if proc.woken_at is not None:
            proc.woken_at += delta
        segment = proc.segment
        if segment is not None:
            if segment.entry_time >= 0:
                segment.entry_time += delta
            if isinstance(segment.block, SleepUntil):
                segment.block = SleepUntil(segment.block.wake_at + delta)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
@dataclass
class FastForwardReport:
    """Outcome of one :func:`run_fast_forward` call."""

    #: whether the fast path stayed armed (False = ran fully, see reason)
    enabled: bool
    #: why fast-forward was disabled, if it was
    reason: str | None = None
    #: hyperperiod used for boundary sampling, ns
    hyperperiod: int | None = None
    #: boundaries at which a digest was taken
    boundaries_sampled: int = 0
    #: whether a repeated digest was found
    detected: bool = False
    #: boundary (abs ns) where the detected cycle starts
    cycle_start: int | None = None
    #: length of the detected cycle, ns
    cycle_len: int | None = None
    #: whole cycles skipped analytically
    cycles_skipped: int = 0
    #: virtual time covered by extrapolation instead of stepping, ns
    skipped_ns: int = 0
    #: digests sampled, for diagnostics (boundary -> digest)
    digests: dict[int, str] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON summary (digest map elided to its size)."""
        return {
            "enabled": self.enabled,
            "reason": self.reason,
            "hyperperiod": self.hyperperiod,
            "boundaries_sampled": self.boundaries_sampled,
            "detected": self.detected,
            "cycle_start": self.cycle_start,
            "cycle_len": self.cycle_len,
            "cycles_skipped": self.cycles_skipped,
            "skipped_ns": self.skipped_ns,
        }


def run_fast_forward(kernel: Kernel, until: int) -> FastForwardReport:
    """Advance ``kernel`` to ``until``, skipping repeated schedule cycles.

    Produces state bit-identical to ``kernel.run(until)`` — including the
    switch-hook call sequence, latency accumulators and all monotone
    counters — or falls back to a plain run when the workload is not
    eligible (see :func:`eligibility_reason`).
    """
    reason = eligibility_reason(kernel)
    if reason is not None:
        kernel.run(until)
        return FastForwardReport(enabled=False, reason=reason)
    cycle_h = kernel_hyperperiod(kernel)
    if until - kernel.clock < (MIN_BOUNDARIES + 1) * cycle_h:
        kernel.run(until)
        return FastForwardReport(
            enabled=False,
            reason=f"horizon too short for {MIN_BOUNDARIES} hyperperiods of {cycle_h} ns",
            hyperperiod=cycle_h,
        )
    report = FastForwardReport(enabled=True, hyperperiod=cycle_h)
    switch_log: list[tuple[Process, int]] = []
    latency_log: list[tuple[Process, int]] = []
    original_hook = kernel.switch_hook

    def _record_switch(proc: Process, now: int) -> None:
        switch_log.append((proc, now))
        if original_hook is not None:
            original_hook(proc, now)

    def _record_latency(proc: Process, latency: int, now: int) -> None:
        latency_log.append((proc, latency))

    seen: dict[str, int] = {}
    snapshots: dict[int, _BoundarySnapshot] = {}
    boundary = (kernel.clock // cycle_h + 1) * cycle_h
    kernel.switch_hook = _record_switch
    kernel.latency_hook = _record_latency
    try:
        while boundary < until:
            kernel.run(boundary, stop_before_switch=True)
            if kernel.clock < boundary:
                # a context switch straddles this boundary; sampling here
                # would perturb the run, so extend to the next one
                boundary += cycle_h
                continue
            # a hook attached since the start must stop the fast path too
            hooked = _observer_reason(kernel, _record_latency)
            if hooked is not None:
                report.enabled = False
                report.reason = hooked
                break
            try:
                digest = state_digest(kernel, boundary)
            except CycleIneligible as exc:
                report.enabled = False
                report.reason = str(exc)
                break
            report.boundaries_sampled += 1
            report.digests[boundary] = digest
            previous = seen.get(digest)
            if previous is not None:
                cycle_len = boundary - previous
                cycles = (until - boundary) // cycle_len
                report.detected = True
                report.cycle_start = previous
                report.cycle_len = cycle_len
                if cycles > 0:
                    _skip_cycles(
                        kernel,
                        snapshots[previous],
                        switch_log,
                        original_hook,
                        latency_log,
                        cycle_len,
                        cycles,
                    )
                    report.cycles_skipped = cycles
                    report.skipped_ns = cycles * cycle_len
                break
            seen[digest] = boundary
            snapshots[boundary] = _take_snapshot(kernel, switch_log, latency_log)
            boundary += cycle_h
    finally:
        # hand both hook slots back before the residual span, however the
        # loop ended; the latency slot was empty unless a hook attached
        # since then has taken it over
        kernel.switch_hook = original_hook
        if kernel.latency_hook is _record_latency:
            kernel.latency_hook = None
    kernel.run(until)
    return report
