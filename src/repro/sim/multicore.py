"""Multicore kernel with globally scheduled CPUs.

Complements the *partitioned* multicore runtime
(:class:`repro.core.smp.SmpSelfTuningRuntime`) with the other half of the
§6 design space: one shared run queue, ``n_cpus`` identical CPUs, and a
global scheduler that assigns the ``n`` most urgent processes to them at
every decision point — migrations included (counted in
:attr:`MultiCoreKernel.stats`).

The kernel machinery (programs, blocking, tracers, timers, probes) is
inherited from :class:`repro.sim.kernel.Kernel`; only the dispatch loop is
replaced.  All CPUs advance in lockstep through a shared virtual clock, so
simultaneity is exact: a quantum ends when *any* CPU hits a segment end,
a scheduler bound or a calendar event.

Global schedulers implement :class:`SmpScheduler` — the uniprocessor
protocol plus :meth:`SmpScheduler.pick_n`.
"""

from __future__ import annotations

from repro.sched.base import SmpScheduler
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process, ProcState

__all__ = ["MultiCoreKernel", "SmpScheduler"]


class MultiCoreKernel(Kernel):
    """``n_cpus`` identical CPUs over a shared clock and calendar."""

    def __init__(self, scheduler: SmpScheduler, n_cpus: int, config: KernelConfig | None = None) -> None:
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        super().__init__(scheduler, config)
        self.n_cpus = n_cpus
        self._running: list[Process | None] = [None] * n_cpus
        self._last_cpu: dict[int, int] = {}
        #: cross-CPU migrations observed
        self.migrations = 0

    # the single-CPU bookkeeping hook: drop from whichever CPU holds it
    def _unassign(self, proc: Process) -> None:
        for cpu, running in enumerate(self._running):
            if running is proc:
                self._running[cpu] = None

    def _assign(self, assignment: list[Process | None], until: int) -> None:
        """Apply a new CPU assignment, accounting switches/migrations."""
        # keep procs on their previous CPU where possible to avoid
        # spurious "migrations" when the assignment set is unchanged
        placed: list[Process | None] = [None] * self.n_cpus
        pending: list[Process] = []
        current_set = {id(p) for p in self._running if p is not None}
        for proc in assignment:
            if proc is None:
                continue
            if id(proc) in current_set:
                cpu = self._running.index(proc)
                placed[cpu] = proc
            else:
                pending.append(proc)
        free = [i for i in range(self.n_cpus) if placed[i] is None]
        for proc, cpu in zip(pending, free, strict=False):
            placed[cpu] = proc
            self.stats.context_switches += 1
            last = self._last_cpu.get(proc.pid)
            if last is not None and last != cpu:
                self.migrations += 1
            self._last_cpu[proc.pid] = cpu
            cost = self.config.context_switch_cost
            if cost > 0:
                self.clock = min(until, self.clock + cost)
            if self.switch_hook is not None:
                self.switch_hook(proc, self.clock)
        for old in self._running:
            if old is not None and old not in placed and old.state is ProcState.RUNNING:
                old.state = ProcState.READY
        self._running = placed
        for proc in self._running:
            if proc is not None:
                proc.state = ProcState.RUNNING
                if proc.woken_at is not None:
                    latency = self.clock - proc.woken_at
                    proc.sched_latency.add(latency)
                    proc.woken_at = None
                    if self.latency_hook is not None:
                        self.latency_hook(proc, latency, self.clock)

    def run(self, until: int, *, stop_before_switch: bool = False) -> None:
        """Advance virtual time to ``until`` on every CPU.

        ``stop_before_switch`` is accepted for signature compatibility with
        :meth:`repro.sim.kernel.Kernel.run` and ignored: multicore kernels
        are never fast-forwarded (cycle detection is uniprocessor-only).
        """
        if until < self.clock:
            raise ValueError(f"cannot run backwards: clock={self.clock}, until={until}")
        scheduler: SmpScheduler = self.scheduler  # type: ignore[assignment]
        while self.clock < until:
            if self._stop_run:
                return
            self._dispatch_due()
            assignment = scheduler.pick_n(self.clock, self.n_cpus)
            if all(p is None for p in assignment):
                nxt = self.events.peek_time()
                if nxt is None:
                    self.stats.idle_time += (until - self.clock) * self.n_cpus
                    self.clock = until
                    return
                step_to = min(nxt, until)
                self.stats.idle_time += (step_to - self.clock) * self.n_cpus
                self.clock = step_to
                continue
            self._assign(assignment, until)
            if self.clock >= until:
                return

            # make sure every running process has a segment to execute
            needs_repick = False
            for proc in list(self._running):
                if proc is None:
                    continue
                if proc.segment is None:
                    self._advance(proc)
                    if proc.segment is None:
                        # exited or changed state through zero-time
                        # instructions: re-decide the whole assignment
                        needs_repick = True
            if needs_repick:
                continue

            quantum = until - self.clock
            nxt = self.events.peek_time()
            if nxt is not None:
                quantum = min(quantum, nxt - self.clock)
            active = [p for p in self._running if p is not None]
            for proc in active:
                quantum = min(quantum, proc.segment.remaining)
                bound = scheduler.time_until_internal_event(proc, self.clock)
                if bound is not None:
                    quantum = min(quantum, bound)
            if quantum <= 0:
                if nxt is not None and nxt <= self.clock:
                    continue
                # a scheduler bound is already due: let charge() observe it
                for proc in active:
                    scheduler.charge(proc, 0, self.clock)
                continue

            self.clock += quantum
            idle_cpus = self.n_cpus - len(active)
            self.stats.idle_time += quantum * idle_cpus
            for proc in active:
                proc.cpu_time += quantum
                self.stats.busy_time += quantum
                proc.segment.remaining -= quantum
                scheduler.charge(proc, quantum, self.clock)
            for proc in active:
                if proc.segment is not None and proc.segment.remaining == 0:
                    self._advance(proc)
