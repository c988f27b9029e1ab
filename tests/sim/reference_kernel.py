"""Reference kernel: the dispatch loop before segment chaining.

:class:`ReferenceKernel` is a :class:`repro.sim.kernel.Kernel` whose
``run`` is the loop that dispatches due events, picks, peeks and asks the
scheduler for its bound again after every single segment.  It shares
every helper (``_advance``, ``_block``, ``_wake``, ...) with the
production kernel, so comparing the two isolates the one thing that
differs: how often ``run`` goes back to the scheduler and the calendar.
The method below keeps that loop; do not optimise it.
"""

from __future__ import annotations

from repro.sim.kernel import Kernel
from repro.sim.process import ProcState


class ReferenceKernel(Kernel):
    """One CPU, re-deciding after every segment."""

    def run(self, until: int, *, stop_before_switch: bool = False) -> None:
        """Advance virtual time to ``until`` (absolute ns).

        With ``stop_before_switch`` the loop returns *before starting* a
        context switch whose cost would carry the clock past ``until``,
        leaving the switch (and all of its state changes) to the next
        ``run`` call.  Chunked runs then stay bit-identical to a single
        monolithic run: the default behaviour clips a straddling switch's
        cost at ``until``, which a re-entered run would charge in full.
        Callers must tolerate the clock stopping short of ``until``.

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
        scheduler = self.scheduler
        pick = scheduler.pick
        charge = scheduler.charge
        time_until = scheduler.time_until_internal_event
        stats = self.stats
        obs = self._obs
        cs_cost = self.config.context_switch_cost
        running = ProcState.RUNNING
        ready = ProcState.READY
        exited = ProcState.EXITED
        while self.clock < until:
            if self._stop_run:
                return
            clock = self.clock
            ev = pop_due(clock)
            while ev is not None:
                stats.dispatched_events += 1
                ev.callback(clock, ev.payload)
                ev = pop_due(clock)
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
                    # process exited or yielded only zero-time instructions
                    # that changed state (e.g. woke someone); re-decide.
                    if self._current is proc and proc.state is exited:
                        self._current = None
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
            clock += quantum
            self.clock = clock
            proc.cpu_time += quantum
            stats.busy_time += quantum
            segment.remaining -= quantum
            charge(proc, quantum, clock)
            if proc.segment is not None and proc.segment.remaining == 0:
                self._advance(proc)
