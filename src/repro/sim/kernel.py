"""Single-CPU kernel: ties processes, scheduler, tracers and timers together.

The kernel advances a nanosecond virtual clock.  At every step it

1. dispatches due calendar events (wake-ups, timer callbacks, admissions),
2. asks the scheduler for the process to run,
3. runs it for the largest quantum that cannot miss anything interesting:
   the end of the process's current segment, the scheduler's next internal
   event (CBS budget exhaustion, time-slice expiry) or the next calendar
   event, whichever comes first,
4. charges the consumed CPU to the process and the scheduler.

Once a pick comes with an integer bound, steps 1–2 are skipped while the
picked process runs on through consecutive segments (a *chain*): the
bound, the next calendar event and the horizon are all still ahead, and
nothing has changed the scheduler's or the calendar's state since the
pick.  A chain charges its CPU in one ``charge`` call per point where
scheduler state is read (:meth:`Kernel._settle`), not one per segment;
the scheduler contract's composition clause makes that the same policy
state.  A chained segment costs one generator resume and one refill of
the process's own segment, a :class:`~repro.sim.instructions.Burst` (a
run of ``Compute`` and non-blocking ``Syscall`` items) that ends before
the chain's limit is completed in one step and one resume, and a sleep
that wakes later blocks without leaving the chain's loop.  Every other
per-segment effect (clock, the value sent into the program, tracer
calls) is the same as with a re-pick after every segment; see
:meth:`Kernel.run`.  Whatever the loop does not do inline (a first
fetch, a ``Fire`` that wakes a waiter, a probed ``Label``, a
``WaitEvent``, an expired sleep, a traced call, program exit) takes one
out-of-line path, :meth:`Kernel._advance`.

System calls are traced through pluggable hooks (see
:mod:`repro.tracer.qtrace`); each hook may add kernel CPU overhead to the
call, which is how tracing overhead perturbs the workload exactly as in the
paper's Table 1 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Protocol, cast

from repro.sim.engine import EventQueue, ScheduledEvent
from repro.sim.instructions import (
    BlockSpec,
    Burst,
    Compute,
    Fire,
    Instruction,
    Label,
    SleepFor,
    SleepUntil,
    Syscall,
    WaitEvent,
)
from repro.sim.process import Process, ProcState, Program, SegmentKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry
from repro.sim.syscalls import SyscallNr
from repro.sched.base import Scheduler


class TracerHook(Protocol):
    """Interface tracers implement to observe (and perturb) system calls.

    ``traces`` is pure, and its answer for a process changes only through
    calls that notify every kernel the tracer is bound to with
    :meth:`Kernel.tracing_changed`.  :meth:`Kernel.run` asks it once per
    pick and completes and fetches the syscalls (and the returns of
    blocking calls) of a process no tracer traces inline; the
    notification ends that chain, so the next syscall or return asks the
    tracers again.
    """

    def bind(self, kernel: Kernel) -> None:
        """Learn a kernel this tracer is attached to (called by
        :meth:`Kernel.add_tracer`)."""
        ...

    def on_syscall_entry(self, proc: Process, nr: SyscallNr, now: int) -> int:
        """Record a syscall entry; return extra kernel ns the tracing costs."""
        ...

    def on_syscall_exit(self, proc: Process, nr: SyscallNr, now: int) -> int:
        """Record a syscall exit; return extra kernel ns the tracing costs."""
        ...

    def traces(self, proc: Process) -> bool:
        """Whether this tracer is attached to ``proc`` at all."""
        ...


LabelProbe = Callable[[Process, int, dict], None]


@dataclass
class KernelStats:
    """Aggregate accounting for a run."""

    context_switches: int = 0
    idle_time: int = 0
    busy_time: int = 0
    syscalls: int = 0
    dispatched_events: int = 0


@dataclass
class KernelConfig:
    """Tunables of the machine model."""

    #: CPU cost of a context switch, ns (2008-era x86: a few microseconds).
    #: A switch burns wall time only: it is charged to no process, budget
    #: or scheduler.
    context_switch_cost: int = 2_000


@dataclass
class _Timer:
    """Handle for a recurring kernel timer."""

    period: int
    callback: Callable[[int], None]
    event: ScheduledEvent | None = None
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()


class Kernel:
    """The simulated machine (one CPU)."""

    #: telemetry hub (:mod:`repro.obs`); the class-level None is the
    #: disabled fast path — hook sites pay one attribute load + identity
    #: test.  :func:`repro.obs.instrument.instrument_kernel` overwrites it
    #: with an instance attribute.  Hooks are strictly read-only: they
    #: must never perturb simulation state, the calendar, or RNG streams.
    _obs: Telemetry | None = None

    #: marker set by the fault-injection layer (:mod:`repro.faults`) on any
    #: kernel that has a fault plan wired up — even a zero-intensity one.
    #: :mod:`repro.sim.cycles` refuses to fast-forward such runs.
    fault_plan: object | None = None

    def __init__(self, scheduler: Scheduler, config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.clock = 0
        self.events = EventQueue()
        self.scheduler = scheduler
        scheduler.bind(self)
        self.processes: dict[int, Process] = {}
        self.tracers: list[TracerHook] = []
        self.stats = KernelStats()
        self._next_pid = 1000
        self._current: Process | None = None
        self._waiters: dict[str, list[Process]] = {}
        self._label_probes: dict[str, list[LabelProbe]] = {}
        #: optional observer called as ``switch_hook(proc, now)`` right
        #: after a context switch completes (switch cost already burned);
        #: the golden-trace digests are built on this
        self.switch_hook: Callable[[Process, int], None] | None = None
        #: optional observer called as ``latency_hook(proc, latency, now)``
        #: whenever a wake-up→dispatch latency sample is recorded
        #: (:mod:`repro.core.events` deadline-miss detection); None =
        #: disabled fast path.  The hook may post calendar events but
        #: must not touch kernel or scheduler state.
        self.latency_hook: Callable[[Process, int, int], None] | None = None
        #: pids ``run_until_exit`` is waiting on (None outside of it)
        self._exit_watch: set[int] | None = None
        #: set by ``_exit`` when the watch set drains; makes ``run`` stop
        self._stop_run = False
        #: raised on every kernel path into scheduler state (admission,
        #: wake-up, block, exit, Label probes) and on every traced-set
        #: change; ends ``run``'s current chain so the next segment starts
        #: with a fresh pick
        self._resched = False
        #: the process ``run``'s current chain runs (None outside a
        #: chain) and the clock its CPU is charged up to; see ``_settle``
        self._chain: Process | None = None
        self._charged_to = 0

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, name: str, program: Program, *, at: int | None = None) -> Process:
        """Create a process running ``program``.

        With ``at`` (absolute ns) the process is admitted at that future
        instant; otherwise it becomes ready immediately.
        """
        proc = Process(self._next_pid, name, program)
        self._next_pid += 1
        self.processes[proc.pid] = proc
        if at is None or at <= self.clock:
            self._admit(proc, self.clock)
        else:
            self.events.push(at, self._admit_event, proc)
        return proc

    def _admit_event(self, now: int, proc: Process) -> None:
        """Calendar payload trampoline for a deferred :meth:`spawn`."""
        self._admit(proc, now)

    def _admit(self, proc: Process, now: int) -> None:
        self._settle()
        proc.state = ProcState.READY
        proc.start_time = now
        proc.woken_at = now
        self._resched = True
        self.scheduler.on_ready(proc, now)

    def _unassign(self, proc: Process) -> None:
        """Drop ``proc`` from whatever CPU it occupies (hook for SMP)."""
        if self._current is proc:
            self._current = None

    def _exit(self, proc: Process, now: int) -> None:
        self._settle()
        if self._obs is not None:
            self._obs.kernel_exit(proc, now)
        proc.state = ProcState.EXITED
        proc.exit_time = now
        proc.segment = None
        self._unassign(proc)
        self._resched = True
        self.scheduler.on_exit(proc, now)
        watch = self._exit_watch
        if watch is not None:
            watch.discard(proc.pid)
            if not watch:
                self._stop_run = True

    # ------------------------------------------------------------------
    # tracers, probes, events
    # ------------------------------------------------------------------
    def add_tracer(self, tracer: TracerHook) -> None:
        """Install a syscall tracer hook."""
        self.tracers.append(tracer)
        tracer.bind(self)
        self.tracing_changed()

    def tracing_changed(self) -> None:
        """A tracer's traced set changed: end ``run``'s current chain, so
        the running process's next syscall asks the tracers again."""
        self._resched = True

    def remove_tracer(self, tracer: TracerHook) -> None:
        """Detach a previously installed tracer hook."""
        self.tracers.remove(tracer)

    def add_label_probe(self, name: str, probe: LabelProbe) -> None:
        """Invoke ``probe(proc, now, payload)`` whenever a program yields
        ``Label(name)``."""
        self._label_probes.setdefault(name, []).append(probe)

    def fire_event(self, key: str) -> int:
        """Wake every process blocked on ``WaitEvent(key)``; return count."""
        waiters = self._waiters.pop(key, [])
        for proc in waiters:
            self._wake(proc, self.clock)
        return len(waiters)

    def at(self, when: int, callback: Callable[[int], None]) -> ScheduledEvent:
        """One-shot kernel callback at absolute time ``when``."""
        return self.events.push(when, self._call_event, callback)

    @staticmethod
    def _call_event(now: int, callback: Callable[[int], None]) -> None:
        """Calendar payload trampoline for :meth:`at`."""
        callback(now)

    def every(self, period: int, callback: Callable[[int], None], *, start: int | None = None) -> _Timer:
        """Recurring kernel callback every ``period`` ns (first at ``start``,
        default ``clock + period``).  Returns a cancellable handle."""
        if period <= 0:
            raise ValueError("timer period must be positive")
        timer = _Timer(period=period, callback=callback)
        first = (self.clock + period) if start is None else start
        timer.event = self.events.push(first, self._timer_event, timer)
        return timer

    def _timer_event(self, now: int, timer: _Timer) -> None:
        """Fire a recurring timer and re-arm it (payload carries the handle)."""
        if timer.cancelled:
            return
        timer.callback(now)
        if not timer.cancelled:
            timer.event = self.events.push(now + timer.period, self._timer_event, timer)

    # ------------------------------------------------------------------
    # blocking / wake-up
    # ------------------------------------------------------------------
    def _wake(self, proc: Process, now: int) -> None:
        if self._chain is not None:  # most wake-ups come from the calendar
            self._settle()
        if proc.state is not ProcState.BLOCKED:
            return
        proc.state = ProcState.READY
        proc.woken_at = now
        self._resched = True
        self.scheduler.on_ready(proc, now)

    def _block(self, proc: Process, spec: BlockSpec, now: int) -> bool:
        """Suspend ``proc`` per ``spec``.  A ``SleepUntil`` or ``SleepFor``
        gives a wake time; a ``WaitEvent`` gives none and waits for
        :meth:`fire_event`.  Returns False, and does nothing, for a wake
        time at or before ``now``."""
        wake_at: int | None = None
        if type(spec) is SleepUntil:
            wake_at = spec.wake_at
        elif type(spec) is SleepFor:
            wake_at = now + spec.duration
        elif type(spec) is not WaitEvent:  # pragma: no cover - defensive
            raise TypeError(f"unknown block spec {spec!r}")
        # an expired sleep settles too: the scheduler sees the same
        # charge calls whether or not the call blocks
        self._settle()
        if wake_at is not None and wake_at <= now:
            return False
        proc.state = ProcState.BLOCKED
        self._unassign(proc)
        self._resched = True
        self.scheduler.on_block(proc, now)
        if wake_at is None:
            self._waiters.setdefault(cast(WaitEvent, spec).key, []).append(proc)
        else:
            self.events.push(wake_at, self._wake_event, proc)
        return True

    def _wake_event(self, now: int, proc: Process) -> None:
        """Calendar payload trampoline for a sleep wake-up."""
        self._wake(proc, now)

    # ------------------------------------------------------------------
    # program advancement
    # ------------------------------------------------------------------
    def _advance(self, proc: Process, instr: Instruction | None = None) -> None:
        """The out-of-line path: complete ``proc``'s segment that just
        ended, if there is one, then pull instructions until one gives CPU
        work, or the process blocks or exits.  ``instr`` is one the caller
        already pulled and has not executed yet.

        A blocking call's entry becomes its ``SYSCALL_RETURN``.  A
        non-blocking call, an expired sleep or a return counts the
        syscall and runs the tracers' exit hooks; their extra cost becomes
        a ``USER`` segment, burnt before the next instruction is fetched.
        A ``Burst`` runs here one item at a time: its other items wait in
        :attr:`Process.burst_rest` and are pulled, here or inline, before
        the program is resumed again.
        """
        # the clock cannot advance in here: zero-time instructions (Fire,
        # Label) only change scheduler or waiter state
        clock = self.clock
        tracers = self.tracers
        seg = proc.segment
        if seg is not None:
            proc.segment = None
            if seg.kind is not SegmentKind.USER:
                call = seg.syscall
                assert call is not None
                if seg.block is not None and self._block(proc, seg.block, clock):
                    # the finished entry becomes its return path (same
                    # call and entry stamp), run after the wake-up
                    ret = call.return_cost
                    seg.kind = SegmentKind.SYSCALL_RETURN
                    seg.remaining = ret if ret > 1 else 1
                    seg.block = None
                    proc.segment = seg
                    return
                proc.syscall_count += 1
                self.stats.syscalls += 1
                extra = 0
                for tracer in tracers:
                    if tracer.traces(proc):
                        extra += tracer.on_syscall_exit(proc, call.nr, clock)
                if extra > 0:
                    proc.segment = seg.refill(SegmentKind.USER, extra)
                    return
        program = proc.program
        rest = proc.burst_rest
        exited = ProcState.EXITED
        # proc.state check instead of the ``alive`` property: this loop
        # runs once per yielded instruction
        while proc.state is not exited:
            if instr is None:
                if rest:
                    instr = rest.pop()
                else:
                    try:
                        if proc.started:
                            instr = program.send(clock)
                        else:
                            instr = next(program)
                            proc.started = True
                    except Exception as exc:  # noqa: BLE001 - crash containment
                        self._program_ended(proc, exc, clock)
                        return
            if type(instr) is Burst:
                # out of line, a burst's items run one at a time; the rest
                # wait on the process and go before the program's next resume
                rest.extend(reversed(instr.items))
                instr = rest.pop()
            if type(instr) is Compute:
                if instr.duration > 0:
                    proc.segment = proc.own_segment.refill(SegmentKind.USER, instr.duration)
                    return
            elif type(instr) is Syscall:
                cost = instr.cost
                for tracer in tracers:
                    # skip the (potentially costly) hook for tracers that
                    # are not attached to this process at all; attached
                    # tracers self-filter identically
                    if tracer.traces(proc):
                        cost += tracer.on_syscall_entry(proc, instr.nr, clock)
                proc.segment = proc.own_segment.refill(
                    SegmentKind.SYSCALL, cost if cost > 1 else 1, instr, instr.block, clock
                )
                return
            elif type(instr) is Fire:
                self.fire_event(instr.key)
            elif type(instr) is Label:
                probes = self._label_probes.get(instr.name)
                if probes:
                    # a probe may reach scheduler state (``set_params``, ``attach``)
                    self._settle()
                    self._resched = True
                    for probe in probes:
                        probe(proc, clock, instr.payload)
            else:
                raise TypeError(f"program of {proc.name} yielded {instr!r}")
            instr = None

    def _program_ended(self, proc: Process, exc: Exception, now: int) -> None:
        """The program raised instead of yielding: ``StopIteration`` is a
        normal exit.  Anything else is a crash: a buggy program must not
        take the machine down, so the process dies (as on a real
        segfault), everything else keeps running, and the exception is
        kept for autopsy."""
        if not isinstance(exc, StopIteration):
            proc.crash = exc
        self._exit(proc, now)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Charge the CPU ``run``'s current chain has used since it was
        last charged, to the process, the stats and the scheduler, in one
        call; outside a chain, do nothing.

        ``run`` settles where the scheduler's state is read: when a
        segment ends at the chain's limit, before the next instruction
        is fetched; at the top of every kernel path into scheduler state
        (admission, wake-up, block, exit, a Label probe); and when the
        chain ends, also by an exception.  Between two settle points
        nothing reads that state, and the scheduler contract's
        composition clause
        (:meth:`~repro.sched.base.Scheduler.time_until_internal_event`)
        makes the one ``charge`` leave the state the per-segment
        charges would have left.
        """
        proc = self._chain
        if proc is None:
            return
        now = self.clock
        delta = now - self._charged_to
        if delta:
            self._charged_to = now
            proc.cpu_time += delta
            self.stats.busy_time += delta
            self.scheduler.charge(proc, delta, now)

    def _dispatch_due(self) -> None:
        while True:
            ev = self.events.pop_due(self.clock)
            if ev is None:
                return
            self.stats.dispatched_events += 1
            ev.callback(self.clock, ev.payload)

    def run(self, until: int, *, stop_before_switch: bool = False) -> None:
        """Advance virtual time to ``until`` (absolute ns).

        With ``stop_before_switch`` the loop returns *before starting* a
        context switch whose cost would carry the clock past ``until``,
        leaving the switch (and all of its state changes) to the next
        ``run`` call.  Chunked runs then stay bit-identical to a single
        monolithic run: the default behaviour clips a straddling switch's
        cost at ``until``, which a re-entered run would charge in full.
        Callers must tolerate the clock stopping short of ``until``.

        Once the scheduler picks a process with an integer bound ``b``
        (:meth:`~repro.sched.base.Scheduler.time_until_internal_event`),
        the loop runs that process through consecutive segments, a
        *chain*, without dispatching, picking or peeking again.  Every
        segment still ends exactly where a re-pick would have ended it, at
        ``min(remaining, b - run since the pick, next event, until)``.  The
        scheduler contract makes the skipped calls redundant: ``pick``
        would return the same process and ``time_until_internal_event``
        ``b`` minus the time run since the pick.  Nor does the chain
        charge after every segment: :meth:`_settle` charges what it ran
        in one call where scheduler state is read.  The chain ends, and
        the next segment starts with a fresh pick, when

        - the bound, the next calendar event or ``until`` is reached;
        - ``_resched`` is raised: admission, wake-up (which covers
          ``Fire`` and direct :meth:`fire_event` calls), block, exit, a
          Label probe about to run, or a traced-set change;
        - the calendar gained an event since the peek (its push counter
          moved): a push may fall before the cached time;
        - or the pick came with no bound (``None``: FP, EDF, a lone
          process under RR or stride), as stride's ``pick`` writes state.

        A cancel does not end the chain: it can only move the next event
        later, so the chain stops early at the stale limit, and the
        segment it cuts there is charged in two pieces that compose.

        Completing a ``Compute`` segment, a non-blocking ``Syscall`` or a
        blocking call's ``SYSCALL_RETURN``, and fetching the next
        ``Compute`` or ``Syscall``, happen inline while no attached tracer
        traces the process: one resume of the program's ``send``, bound
        once per chain (a chain never changes process), and one refill of
        the finished segment, the process's own, in place.
        ``proc.segment`` keeps pointing at that segment while the program
        runs; it is None only once an instruction goes to ``_advance`` or
        the program ends.  Each pick asks every tracer's ``traces``
        once; a traced-set change raises ``_resched`` (see
        :class:`TracerHook`), and no syscall or return goes inline while
        it is up.  A sleep's entry, a finished ``SYSCALL`` segment whose
        ``SleepUntil`` or ``SleepFor`` wakes after now, blocks inline,
        traced or not (an entry calls no tracer hook), in ``_block``'s
        order: settle, ``BLOCKED``, ``_current`` cleared, ``_resched``
        raised, ``on_block``, the wake-up pushed, and the segment turned
        into its ``SYSCALL_RETURN``.  Everything else (a first fetch, a
        ``WaitEvent`` or an expired sleep, traced processes' syscalls and
        returns, a ``Fire`` some process waits on, a ``Label`` a probe
        watches, program exit) goes through :meth:`_advance`, the one
        out-of-line path, which the multicore kernel also uses.  A
        ``Fire`` no process waits on and a ``Label`` no probe watches
        change no state, and the inline fetch passes over them.  A context
        switch burns wall time only.

        An inline fetch completes a :class:`~repro.sim.instructions.Burst`
        in one step, when no attached tracer traces the process,
        ``_resched`` is down, the calendar gained no event since the peek
        and the burst's CPU total ends strictly before the chain's limit:
        the clock, ``proc.syscall_count`` and ``stats.syscalls`` advance
        by the burst's totals at once, and the program is resumed once,
        with the clock after its last item.  Nothing could act between
        the items: no calendar event or bound falls inside, no kernel
        path runs, and the items' segments would all have run in this
        chain.  Otherwise the items run one at a time, exactly as if
        yielded one by one, from :attr:`Process.burst_rest`, which every
        fetch, inline or in :meth:`_advance`, empties before it resumes
        the program.

        This is the hottest loop of the simulator; scheduler/calendar
        methods and config fields are cached in locals, and the due-event
        dispatch is inlined (``_dispatch_due`` remains as the out-of-line
        variant for the multicore kernel).
        """
        if until < self.clock:
            raise ValueError(f"cannot run backwards: clock={self.clock}, until={until}")
        events = self.events
        pop_due = events.pop_due
        peek_time = events.peek_time
        push = events.push
        wake_event = self._wake_event
        scheduler = self.scheduler
        pick = scheduler.pick
        charge = scheduler.charge
        time_until = scheduler.time_until_internal_event
        stats = self.stats
        obs = self._obs
        tracers = self.tracers
        waiters = self._waiters
        probes = self._label_probes
        cs_cost = self.config.context_switch_cost
        running = ProcState.RUNNING
        ready = ProcState.READY
        blocked = ProcState.BLOCKED
        user = SegmentKind.USER
        in_kernel = SegmentKind.SYSCALL
        in_return = SegmentKind.SYSCALL_RETURN
        while self.clock < until:
            if self._stop_run:
                return
            clock = self.clock
            ev = pop_due(clock)
            while ev is not None:
                stats.dispatched_events += 1
                ev.callback(clock, ev.payload)
                ev = pop_due(clock)
            self._resched = False
            proc = pick(clock)
            if proc is None:
                if obs is not None:
                    obs.kernel_idle(clock)
                nxt = peek_time()
                if nxt is None:
                    # nothing will ever happen again
                    stats.idle_time += until - clock
                    self.clock = until
                    return
                step_to = nxt if nxt < until else until
                stats.idle_time += step_to - clock
                self.clock = step_to
                continue
            current = self._current
            if proc is not current:
                if stop_before_switch and cs_cost > 0 and clock + cs_cost > until:
                    return
                if current is not None and current.state is running:
                    current.state = ready
                stats.context_switches += 1
                if cs_cost > 0:
                    clock += cs_cost
                    if clock > until:
                        clock = until
                    self.clock = clock
                self._current = proc
                if self.switch_hook is not None:
                    self.switch_hook(proc, clock)
                if obs is not None:
                    obs.kernel_switch(proc, clock)
                if clock >= until:
                    return
            proc.state = running
            if proc.woken_at is not None:
                latency = clock - proc.woken_at
                proc.sched_latency.add(latency)
                proc.woken_at = None
                latency_hook = self.latency_hook
                if latency_hook is not None:
                    latency_hook(proc, latency, clock)
            segment = proc.segment
            if segment is None:
                self._advance(proc)
                segment = proc.segment
                if segment is None:
                    # the process exited (``_exit`` cleared ``_current``);
                    # re-decide
                    continue
            quantum = segment.remaining
            bound = time_until(proc, clock)
            if bound is not None and bound < quantum:
                quantum = bound
            nxt = peek_time()
            if nxt is not None and nxt - clock < quantum:
                quantum = nxt - clock
            if until - clock < quantum:
                quantum = until - clock
            if quantum <= 0:
                # an event is due right now or the scheduler wants control
                # immediately; dispatch and re-pick
                if nxt is not None and nxt <= clock:
                    continue
                if bound is not None and bound <= 0:
                    # scheduler internal event exactly now (budget edge)
                    charge(proc, 0, clock)
                    continue
                return
            # the chain may run on while the clock stays below ``limit``;
            # with no bound it ends after this segment
            limit = clock
            if bound is not None:
                limit = clock + bound
                if nxt is not None and nxt < limit:
                    limit = nxt
                if until < limit:
                    limit = until
            # whether the chain may complete and fetch syscalls inline:
            # asked once per pick, kept valid by ``_resched``; a kernel
            # with no tracer decides on the live ``not tracers`` alone
            untraced = True
            if tracers:
                for tracer in tracers:
                    if tracer.traces(proc):
                        untraced = False
            pushes = events._seq
            send = proc.program.send
            rest = proc.burst_rest
            self._chain = proc
            self._charged_to = clock
            try:
                while True:
                    clock += quantum
                    self.clock = clock
                    remaining = segment.remaining - quantum
                    segment.remaining = remaining
                    if remaining:
                        break
                    if clock >= limit:
                        # the bound may run out right here: its exhaustion,
                        # hooks and traced-set change act before the next
                        # instruction is fetched, as after a re-pick
                        self._settle()
                    kind = segment.kind
                    if kind is user or (
                        segment.block is None
                        and (not tracers or (untraced and not self._resched))
                    ):
                        # inline ``_advance`` for the common case: a
                        # Compute, a non-blocking syscall or a blocking
                        # call's return completes, and the next Compute or
                        # Syscall refills the finished segment (the
                        # process's own) in place; ``proc.segment`` keeps
                        # pointing at it meanwhile
                        if kind is not user:
                            proc.syscall_count += 1
                            stats.syscalls += 1
                        while True:
                            if rest:
                                instr = rest.pop()
                            else:
                                try:
                                    instr = send(clock)
                                except Exception as exc:  # noqa: BLE001 - crash containment
                                    proc.segment = None
                                    self._program_ended(proc, exc, clock)
                                    segment = None
                                    break
                            # ``type(...) is`` (not ``__class__``) narrows for mypy
                            if type(instr) is Burst:
                                cpu = instr.cpu
                                if (
                                    clock + cpu < limit
                                    and (not tracers or untraced)
                                    and not self._resched
                                    and events._seq == pushes
                                ):
                                    # one step: no event, bound, probe or
                                    # tracer can act between the items,
                                    # and the program resumes once (a
                                    # push by the body may fall before
                                    # ``limit``, as it may end the chain)
                                    clock += cpu
                                    self.clock = clock
                                    calls = instr.calls
                                    proc.syscall_count += calls
                                    stats.syscalls += calls
                                else:
                                    rest.extend(reversed(instr.items))
                            elif type(instr) is Compute:
                                if instr.duration > 0:
                                    segment.kind = user
                                    segment.remaining = instr.duration
                                    segment.syscall = None
                                    segment.block = None
                                    segment.entry_time = -1
                                    break
                            elif type(instr) is Syscall and (
                                not tracers or (untraced and not self._resched)
                            ):
                                cost = instr.cost
                                segment.kind = in_kernel
                                segment.remaining = cost if cost > 1 else 1
                                segment.syscall = instr
                                segment.block = instr.block
                                segment.entry_time = clock
                                break
                            elif not (
                                (type(instr) is Fire and instr.key not in waiters)
                                or (type(instr) is Label and instr.name not in probes)
                            ):
                                # a Fire that wakes, a probed Label, a traced
                                # syscall or an unknown class; a Fire no one
                                # waits on and a Label no probe watches
                                # change nothing, and the fetch goes on
                                proc.segment = None
                                self._advance(proc, instr)
                                segment = proc.segment
                                break
                    else:
                        block = segment.block
                        wake_at = clock
                        if type(block) is SleepUntil:
                            wake_at = block.wake_at
                        elif type(block) is SleepFor:
                            wake_at += block.duration
                        if wake_at > clock:
                            # inline ``_advance``/``_block`` for a sleep's
                            # entry, traced or not (an entry calls no
                            # tracer hook), in ``_block``'s order; the
                            # finished segment becomes its return path
                            self._settle()
                            proc.state = blocked
                            self._current = None
                            self._resched = True
                            scheduler.on_block(proc, clock)
                            push(wake_at, wake_event, proc)
                            call = segment.syscall
                            assert call is not None
                            ret = call.return_cost
                            segment.kind = in_return
                            segment.remaining = ret if ret > 1 else 1
                            segment.block = None
                            break
                        self._advance(proc)
                        segment = proc.segment
                    if segment is None or clock >= limit or self._resched or events._seq != pushes:
                        break
                    quantum = segment.remaining
                    if limit - clock < quantum:
                        quantum = limit - clock
            finally:
                if clock != self._charged_to:
                    self._settle()
                self._chain = None

    def run_until_exit(self, procs: Iterable[Process], hard_limit: int) -> int:
        """Run until every process in ``procs`` exited (or ``hard_limit``).

        Returns the clock value when the last of them exited.  Useful for
        batch workloads (the ffmpeg transcode of Table 1).

        The simulation steps straight from calendar event to calendar
        event: ``_exit`` drains a watch set of the awaited pids and raises
        a stop flag the main loop checks, instead of the old scheme of
        re-entering ``run`` in ``hard_limit // 1000`` fixed slices (which
        cost a thousand restarts on long transcodes and overshot past the
        final exit by up to one slice).
        """
        procs = list(procs)
        watch = {p.pid for p in procs if p.alive}
        if watch and self.clock < hard_limit:
            self._exit_watch = watch
            self._stop_run = False
            try:
                while watch and self.clock < hard_limit:
                    self._stop_run = False
                    self.run(hard_limit)
            finally:
                self._exit_watch = None
                self._stop_run = False
        # an exit at time 0 is an exit: test for None, not for falsiness
        return max(
            (self.clock if p.exit_time is None else p.exit_time for p in procs),
            default=self.clock,
        )
