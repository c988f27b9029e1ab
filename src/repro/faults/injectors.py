"""The injector catalogue: five ways the §4 observation loop goes wrong.

Each injector stresses one assumption the paper's architecture (Fig. 3)
quietly relies on:

- :class:`TraceTamper` — §4.2 assumes the analyser sees the application's
  syscall bursts faithfully; this drops, duplicates and time-jitters
  events in the download path (a lossy chardev, a coarse or non-monotonic
  timestamp source).
- :class:`RingPressure` — §4.1's circular buffer overwrites oldest events
  by design; this shrinks the buffer or stalls the download agent so the
  overwrite path actually fires.
- :class:`WorkloadFaults` — §4.4's predictor assumes the per-period
  computation time is stationary; this injects overload bursts (inflated
  decode costs) and mode switches (stretched activation periods).
- :class:`ClockCoarsening` — §4.2's Dirac-train model assumes timestamps
  resolve the burst structure; this quantises them to a coarse grid (a
  jiffy-resolution clocksource).
- :class:`SupervisorSaturation` — Eq. 1's compression assumes competing
  requests are honest; this registers greedy bandwidth hogs against the
  supervisor so every other task gets compressed.

All injectors are deterministic (seeded, independent RNGs) and honour
zero-intensity transparency: ``arm()`` with a zero plan installs nothing
(see :mod:`repro.faults.plan`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.base import FaultInjector
from repro.faults.plan import FaultPlan, combined_is_zero
from repro.sim.instructions import Burst, Compute, Instruction, SleepFor, SleepUntil, Syscall
from repro.sim.process import Program
from repro.sim.time import MS
from repro.tracer.events import RingBuffer, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.supervisor import Supervisor
    from repro.sim.kernel import Kernel
    from repro.tracer.qtrace import QTracer


class TraceTamper(FaultInjector):
    """Drop, duplicate and time-jitter trace events in the download path.

    Wraps :attr:`repro.tracer.qtrace.QTracer.tamper`, so both direct
    ``drain()`` calls and the download agent see the tampered batches;
    the kernel-side ring buffer itself is untouched (the faults model
    corruption *between* the kernel log and the analyser).

    Intensity maps per sub-plan: drop probability per event, duplication
    probability per event, and jitter standard deviation
    ``intensity * jitter_ns`` added to each timestamp (which can reorder
    events — exactly the anomaly the analyser guards must reject).
    """

    kind = "trace"

    def __init__(
        self,
        *,
        drop: FaultPlan | None = None,
        duplicate: FaultPlan | None = None,
        jitter: FaultPlan | None = None,
        jitter_ns: int = 2 * MS,
        seed: int = 0,
    ) -> None:
        """Store the per-fault sub-plans (each may be None = never)."""
        super().__init__(seed=seed)
        self.drop = drop or FaultPlan.zero()
        self.duplicate = duplicate or FaultPlan.zero()
        self.jitter = jitter or FaultPlan.zero()
        self.jitter_ns = jitter_ns

    def arm(self, tracer: QTracer) -> TraceTamper:
        """Install the tamper hook on ``tracer`` (no-op when all plans zero)."""
        if combined_is_zero([self.drop, self.duplicate, self.jitter]):
            return self
        prev = tracer.tamper
        if prev is None:
            tracer.tamper = self._apply
        else:
            # compose with an already-installed tamper stage
            def chained(batch: list[TraceEvent], now: int) -> list[TraceEvent]:
                """Run this stage after the previously installed one."""
                return self._apply(prev(batch, now), now)

            tracer.tamper = chained
        self._armed = True
        return self

    def _apply(self, batch: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Tamper one downloaded batch (identity outside fault windows)."""
        p_drop = self.drop.intensity_at(now)
        p_dup = self.duplicate.intensity_at(now)
        i_jit = self.jitter.intensity_at(now)
        # repro: allow[DT004]  -- exact-zero is the transparency gate: 0.0 is representable
        if not batch or (p_drop == 0.0 and p_dup == 0.0 and i_jit == 0.0):
            return batch
        rng = self._rng
        sigma = i_jit * self.jitter_ns
        out: list[TraceEvent] = []
        for ev in batch:
            if p_drop > 0.0 and rng.random() < p_drop:
                self._note("drop", now, pid=ev.pid)
                continue
            if sigma > 0.0:
                t = max(0, ev.time + int(rng.normal(0.0, sigma)))
                if t != ev.time:
                    ev = TraceEvent(t, ev.pid, ev.nr, ev.kind)
                    self._note("jitter", now, pid=ev.pid)
            out.append(ev)
            if p_dup > 0.0 and rng.random() < p_dup:
                out.append(ev)
                self._note("duplicate", now, pid=ev.pid)
        return out


class RingPressure(FaultInjector):
    """Force §4.1 ring-buffer overruns: shrink the buffer or stall drains.

    ``mode="shrink"`` swaps the tracer's ring for one of capacity
    ``max(min_capacity, capacity · (1 − intensity))`` while a window is
    active (stored events carry over; history counters are preserved).
    ``mode="stall"`` sets :attr:`repro.tracer.qtrace.QTracer.stalled`, so
    neither ``drain()`` nor the download agent empties the buffer and the
    kernel keeps overwriting oldest events.  Either way the loss becomes
    *visible* through the tracer's overrun accounting
    (:attr:`repro.tracer.qtrace.QTracer.overrun_total`).

    State flips happen on calendar callbacks at the plan's edges — one
    event per edge, no polling.
    """

    kind = "ring"

    def __init__(
        self, plan: FaultPlan, *, mode: str = "shrink", min_capacity: int = 8, seed: int = 0
    ) -> None:
        """Configure the pressure mode and the shrink floor."""
        if mode not in ("shrink", "stall"):
            raise ValueError(f"mode must be 'shrink' or 'stall', got {mode!r}")
        if min_capacity < 1:
            raise ValueError(f"min_capacity must be >= 1, got {min_capacity}")
        super().__init__(seed=seed)
        self.plan = plan
        self.mode = mode
        self.min_capacity = min_capacity
        self._tracer: QTracer | None = None
        self._base_capacity = 0

    def arm(self, tracer: QTracer, kernel: Kernel) -> RingPressure:
        """Schedule the window-edge callbacks (no-op for a zero plan)."""
        if self.plan.is_zero:
            return self
        self._tracer = tracer
        self._base_capacity = tracer.buffer.capacity
        for edge in self.plan.edges():
            if edge >= kernel.clock:
                kernel.at(edge, self._on_edge)
        self._on_edge(kernel.clock)  # apply a window already in progress
        self._armed = True
        return self

    def _on_edge(self, now: int) -> None:
        """Apply the intensity in effect at ``now`` to the tracer."""
        tracer = self._tracer
        assert tracer is not None
        intensity = self.plan.intensity_at(now)
        if self.mode == "stall":
            stalled = intensity > 0.0
            if stalled and not tracer.stalled:
                tracer.stalled = True
                self._window_begin("stall", now, intensity=intensity)
            elif not stalled and tracer.stalled:
                tracer.stalled = False
                self._window_end(now)
            return
        capacity = (
            max(self.min_capacity, round(self._base_capacity * (1.0 - intensity)))
            if intensity > 0.0
            else self._base_capacity
        )
        if capacity != tracer.buffer.capacity:
            if capacity < self._base_capacity:
                self._window_begin("shrink", now, capacity=capacity, intensity=intensity)
            else:
                self._window_end(now)
            self._resize(tracer, capacity)

    @staticmethod
    def _resize(tracer: QTracer, capacity: int) -> None:
        """Swap the ring for one of ``capacity``, preserving history counters."""
        old = tracer.buffer
        new = RingBuffer(capacity)
        for ev in old.peek():
            new.push(ev)
        # carry the lifetime accounting across the swap: `total` counts
        # pushes since boot, `dropped` counts overwrites (including the
        # ones the re-push above just performed on a shrink)
        new.total = old.total
        new.dropped += old.dropped
        tracer.buffer = new


class WorkloadFaults(FaultInjector):
    """Overload bursts and mode switches, injected by wrapping a program.

    :meth:`wrap` interposes on the instruction stream of a workload
    generator.  While a window of ``overload`` is active, every
    ``Compute`` duration is inflated by ``1 + intensity · compute_factor``
    (the I-frame-burst shape §4.4's remark 1 worries about).  While a
    window of ``mode_switch`` is active, blocking sleeps are stretched by
    ``1 + intensity · period_factor``, which *slows the application's
    activation rate* — the rate change §1 motivates the whole paper with.

    The wrapper is transparent when idle: outside every window the
    original instruction objects pass through untouched.  A ``Burst`` is
    yielded as its items, one at a time, which is what it means, so
    that each ``Compute`` is inflated by the window it starts in.
    """

    kind = "workload"

    def __init__(
        self,
        *,
        overload: FaultPlan | None = None,
        mode_switch: FaultPlan | None = None,
        compute_factor: float = 1.0,
        period_factor: float = 0.5,
        seed: int = 0,
    ) -> None:
        """Store the overload / mode-switch sub-plans and their scales."""
        if compute_factor < 0 or period_factor < 0:
            raise ValueError("compute_factor and period_factor must be >= 0")
        super().__init__(seed=seed)
        self.overload = overload or FaultPlan.zero()
        self.mode_switch = mode_switch or FaultPlan.zero()
        self.compute_factor = compute_factor
        self.period_factor = period_factor

    def wrap(self, program: Program) -> Program:
        """Return ``program`` with the fault windows applied (or unchanged)."""
        if combined_is_zero([self.overload, self.mode_switch]):
            return program
        self._armed = True
        return self._wrapped(program)

    def _wrapped(self, program: Program) -> Program:
        """Generator adapter translating instructions inside fault windows."""
        reply = None
        started = False
        while True:
            try:
                instr = program.send(reply) if started else next(program)
                started = True
            except StopIteration:
                return
            items: tuple[Instruction, ...] = instr.items if type(instr) is Burst else (instr,)
            for item in items:
                now = reply if isinstance(reply, int) else 0
                if type(item) is Compute:
                    i = self.overload.intensity_at(now)
                    if i > 0.0 and self.compute_factor > 0.0:
                        inflated = int(item.duration * (1.0 + i * self.compute_factor))
                        if inflated != item.duration:
                            self._note("overload", now, extra_ns=inflated - item.duration)
                            item = Compute(inflated)
                elif type(item) is Syscall and item.block is not None:
                    i = self.mode_switch.intensity_at(now)
                    if i > 0.0 and self.period_factor > 0.0:
                        stretched = self._stretch(item, now, 1.0 + i * self.period_factor)
                        if stretched is not None:
                            self._note("mode-switch", now)
                            item = stretched
                reply = yield item

    @staticmethod
    def _stretch(instr: Syscall, now: int, factor: float) -> Syscall | None:
        """Stretch a blocking sleep by ``factor`` (None = not stretchable)."""
        block = instr.block
        if isinstance(block, SleepUntil):
            if block.wake_at <= now:
                return None
            wake = now + int((block.wake_at - now) * factor)
            new_block: SleepUntil | SleepFor = SleepUntil(wake)
        elif isinstance(block, SleepFor):
            new_block = SleepFor(int(block.duration * factor))
        else:
            return None  # WaitEvent: nothing to stretch
        return Syscall(
            instr.nr, cost=instr.cost, block=new_block, return_cost=instr.return_cost
        )


class ClockCoarsening(FaultInjector):
    """Quantise trace timestamps to a coarse grid (jiffy-class clocksource).

    While a window is active every downloaded event's timestamp is
    floored to a multiple of ``intensity · granularity_ns`` (so higher
    intensity = coarser clock).  Composes with :class:`TraceTamper`
    through the same :attr:`repro.tracer.qtrace.QTracer.tamper` chain.

    Coarsening collapses distinct timestamps onto the same grid point —
    the duplicate-timestamp anomaly the analyser guard must tolerate —
    and widens every spectrum line by the grid spacing.
    """

    kind = "clock"

    def __init__(self, plan: FaultPlan, *, granularity_ns: int = 4 * MS, seed: int = 0) -> None:
        """Configure the full-intensity quantisation step."""
        if granularity_ns <= 0:
            raise ValueError(f"granularity_ns must be positive, got {granularity_ns}")
        super().__init__(seed=seed)
        self.plan = plan
        self.granularity_ns = granularity_ns

    def arm(self, tracer: QTracer) -> ClockCoarsening:
        """Install the quantisation stage on ``tracer`` (no-op when zero)."""
        if self.plan.is_zero:
            return self
        prev = tracer.tamper
        if prev is None:
            tracer.tamper = self._apply
        else:

            def chained(batch: list[TraceEvent], now: int) -> list[TraceEvent]:
                """Run this stage after the previously installed one."""
                return self._apply(prev(batch, now), now)

            tracer.tamper = chained
        self._armed = True
        return self

    def _apply(self, batch: list[TraceEvent], now: int) -> list[TraceEvent]:
        """Quantise one batch (identity outside fault windows)."""
        intensity = self.plan.intensity_at(now)
        # repro: allow[DT004]  -- exact-zero is the transparency gate: 0.0 is representable
        if not batch or intensity == 0.0:
            return batch
        grain = max(1, int(intensity * self.granularity_ns))
        out: list[TraceEvent] = []
        changed = 0
        for ev in batch:
            t = (ev.time // grain) * grain
            if t != ev.time:
                ev = TraceEvent(t, ev.pid, ev.nr, ev.kind)
                changed += 1
            out.append(ev)
        if changed:
            self._note("coarsen", now, events=changed, grain_ns=grain)
        return out


class SupervisorSaturation(FaultInjector):
    """Register greedy bandwidth hogs so Eq. 1 compression squeezes everyone.

    While a window is active, ``n_hogs`` phantom tasks are registered
    against the supervisor and submit requests totalling
    ``intensity · bandwidth`` of the CPU at a high weight.  Real tasks
    get proportionally compressed — and because a task controller sizes
    its next request from what it *consumed* under compression, the
    squeeze is self-reinforcing (the starvation spiral the controller's
    last-good fallback and the supervisor watchdog exist to break).

    Window exits unregister the hogs.  Note the deliberately ugly detail:
    unregistering frees the bandwidth but does **not** push new grants to
    idle tasks — exactly the stale-compression state
    :meth:`repro.core.supervisor.Supervisor.watchdog` repairs.
    """

    kind = "supervisor"

    def __init__(
        self,
        plan: FaultPlan,
        *,
        bandwidth: float = 0.8,
        n_hogs: int = 2,
        hog_period: int = 20 * MS,
        weight: float = 8.0,
        seed: int = 0,
    ) -> None:
        """Configure the hog pool (total bandwidth, count, period, weight)."""
        if not 0.0 < bandwidth <= 1.0:
            raise ValueError(f"bandwidth must be in (0, 1], got {bandwidth}")
        if n_hogs < 1:
            raise ValueError(f"n_hogs must be >= 1, got {n_hogs}")
        super().__init__(seed=seed)
        self.plan = plan
        self.bandwidth = bandwidth
        self.n_hogs = n_hogs
        self.hog_period = hog_period
        self.weight = weight
        self._supervisor: Supervisor | None = None
        self._keys: list[int] = []

    def arm(self, supervisor: Supervisor, kernel: Kernel) -> SupervisorSaturation:
        """Schedule hog registration at the plan's edges (no-op when zero)."""
        if self.plan.is_zero:
            return self
        self._supervisor = supervisor
        for edge in self.plan.edges():
            if edge >= kernel.clock:
                kernel.at(edge, self._on_edge)
        self._on_edge(kernel.clock)
        self._armed = True
        return self

    def _on_edge(self, now: int) -> None:
        """Register, rescale or unregister the hogs per the current intensity."""
        from repro.core.lfspp import BandwidthRequest

        supervisor = self._supervisor
        assert supervisor is not None
        intensity = self.plan.intensity_at(now)
        if intensity > 0.0:
            if not self._keys:
                for _ in range(self.n_hogs):
                    self._keys.append(supervisor.register(u_min=0.0, weight=self.weight))
                self._window_begin(
                    "saturate", now, hogs=self.n_hogs, bandwidth=self.bandwidth * intensity
                )
            share = self.bandwidth * intensity / self.n_hogs
            budget = max(1, int(share * self.hog_period))
            for key in self._keys:
                supervisor.submit(key, BandwidthRequest(budget=budget, period=self.hog_period))
        elif self._keys:
            for key in self._keys:
                supervisor.unregister(key)
            self._keys.clear()
            self._window_end(now)
