"""Injector behaviour: determinism, windows, zero-transparency, composition."""

import pytest

from repro.faults import (
    ClockCoarsening,
    FaultHarness,
    FaultPlan,
    RingPressure,
    SupervisorSaturation,
    TraceTamper,
    WorkloadFaults,
)
from repro.core.lfspp import BandwidthRequest
from repro.core.supervisor import Supervisor
from repro.sched import RoundRobinScheduler
from repro.sim.instructions import Burst, Compute, SleepFor, SleepUntil, Syscall
from repro.sim.kernel import Kernel
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS, SEC
from repro.tracer.events import EventKind, TraceEvent
from repro.tracer.qtrace import QTraceConfig, QTracer


def _batch(times, pid=7):
    return [TraceEvent(t, pid, SyscallNr.WRITE, EventKind.SYSCALL_ENTRY) for t in times]


class TestTraceTamper:
    def test_zero_plans_install_nothing(self):
        tracer = QTracer()
        inj = TraceTamper().arm(tracer)
        assert tracer.tamper is None
        assert not inj._armed

    def test_identity_outside_window(self):
        tracer = QTracer()
        TraceTamper(drop=FaultPlan.burst(SEC, 2 * SEC, 1.0), seed=3).arm(tracer)
        batch = _batch([10, 20, 30])
        assert tracer.tamper(batch, 0) is batch  # same object, untouched

    def test_full_drop_inside_window(self):
        tracer = QTracer()
        inj = TraceTamper(drop=FaultPlan.burst(0, SEC, 1.0), seed=3).arm(tracer)
        assert tracer.tamper(_batch([10, 20, 30]), 500 * MS) == []
        assert inj.counts["drop"] == 3

    def test_drop_is_seed_deterministic(self):
        outs = []
        for _ in range(2):
            tracer = QTracer()
            TraceTamper(drop=FaultPlan.constant(0.5), seed=42).arm(tracer)
            outs.append(tracer.tamper(_batch(range(0, 2000, 10)), 100))
        assert outs[0] == outs[1]

    def test_jitter_perturbs_timestamps(self):
        tracer = QTracer()
        inj = TraceTamper(jitter=FaultPlan.constant(1.0), jitter_ns=2 * MS, seed=1).arm(tracer)
        times = list(range(0, 100 * MS, MS))
        out = tracer.tamper(_batch(times), 50 * MS)
        assert len(out) == len(times)
        assert [e.time for e in out] != times
        assert all(e.time >= 0 for e in out)
        assert inj.counts["jitter"] > 0

    def test_duplicate_grows_batch(self):
        tracer = QTracer()
        inj = TraceTamper(duplicate=FaultPlan.constant(1.0), seed=1).arm(tracer)
        out = tracer.tamper(_batch([1, 2, 3]), 100)
        assert len(out) == 6  # every event doubled
        assert inj.counts["duplicate"] == 3


class TestRingPressure:
    def test_zero_plan_posts_no_events(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        tracer = QTracer()
        before = len(kernel.queue) if hasattr(kernel, "queue") else None
        inj = RingPressure(FaultPlan.zero()).arm(tracer, kernel)
        assert not inj._armed
        if before is not None:
            assert len(kernel.queue) == before

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RingPressure(FaultPlan.zero(), mode="nonsense")

    def test_shrink_preserves_events_and_counters(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        tracer = QTracer(QTraceConfig(buffer_capacity=100))
        for ev in _batch(range(10)):
            tracer.buffer.push(ev)
        inj = RingPressure(FaultPlan.burst(0, SEC, 0.8), min_capacity=8, seed=0)
        inj.arm(tracer, kernel)  # window already active at clock 0
        assert tracer.buffer.capacity == 20  # 100 * (1 - 0.8)
        assert [e.time for e in tracer.buffer.peek()] == list(range(10))
        assert tracer.buffer.total == 10

    def test_shrink_restores_after_window(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        tracer = QTracer(QTraceConfig(buffer_capacity=64))
        RingPressure(FaultPlan.burst(10 * MS, 20 * MS, 0.9), seed=0).arm(tracer, kernel)
        kernel.run(15 * MS)
        assert tracer.buffer.capacity == 8  # max(min_capacity, 64*0.1)
        kernel.run(25 * MS)
        assert tracer.buffer.capacity == 64

    def test_stall_blocks_drain(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        tracer = QTracer()
        seen = []
        tracer.add_sink(lambda batch, now: seen.append(len(batch)))
        RingPressure(FaultPlan.burst(10 * MS, 20 * MS, 1.0), mode="stall", seed=0).arm(
            tracer, kernel
        )
        kernel.run(15 * MS)
        assert tracer.stalled
        for ev in _batch([1, 2, 3]):
            tracer.buffer.push(ev)
        assert tracer.drain(15 * MS) == []
        assert seen == []  # the sink never saw the wedged batch
        kernel.run(25 * MS)
        assert not tracer.stalled
        assert len(tracer.drain(25 * MS)) == 3


class TestWorkloadFaults:
    @staticmethod
    def _drive(program, reply_times):
        """Run the generator, sending the given completion times."""
        out = [next(program)]
        for t in reply_times:
            try:
                out.append(program.send(t))
            except StopIteration:
                break
        return out

    @staticmethod
    def _prog():
        t = yield Compute(2 * MS)
        t = yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(t + 40 * MS))
        yield Compute(2 * MS)

    def test_zero_plan_returns_same_generator(self):
        prog = self._prog()
        assert WorkloadFaults().wrap(prog) is prog

    def test_overload_inflates_compute_inside_window(self):
        wrapped = WorkloadFaults(
            overload=FaultPlan.constant(1.0), compute_factor=1.0, seed=0
        ).wrap(self._prog())
        instrs = self._drive(wrapped, [10 * MS, 50 * MS, 60 * MS])
        # note: the first instruction is fetched before any reply, so the
        # wrapper evaluates it at t=0 (window active under constant plan)
        assert instrs[0].duration == 4 * MS  # 2ms * (1 + 1.0*1.0)
        assert instrs[2].duration == 4 * MS

    def test_compute_untouched_outside_window(self):
        wrapped = WorkloadFaults(
            overload=FaultPlan.burst(SEC, 2 * SEC, 1.0), compute_factor=1.0, seed=0
        ).wrap(self._prog())
        instrs = self._drive(wrapped, [10 * MS, 50 * MS, 60 * MS])
        assert instrs[0].duration == 2 * MS
        assert isinstance(instrs[1], Syscall)
        assert instrs[1].block == SleepUntil(10 * MS + 40 * MS)

    def test_mode_switch_stretches_sleeps(self):
        wrapped = WorkloadFaults(
            mode_switch=FaultPlan.constant(1.0), period_factor=0.5, seed=0
        ).wrap(self._prog())
        instrs = self._drive(wrapped, [10 * MS, 70 * MS, 80 * MS])
        sleep = instrs[1]
        # wake was now+40ms; stretched by 1.5x -> now+60ms
        assert sleep.block == SleepUntil(10 * MS + 60 * MS)

    def test_counts_injected(self):
        inj = WorkloadFaults(overload=FaultPlan.constant(0.5), compute_factor=1.0, seed=0)
        self._drive(inj.wrap(self._prog()), [10 * MS, 50 * MS, 60 * MS])
        assert inj.counts["overload"] == 2

    def test_burst_items_are_inflated_at_their_own_instants(self):
        # the window opens between the burst's two Computes
        def prog(seen):
            seen.append((yield Burst([Compute(2 * MS), Syscall(SyscallNr.WRITE), Compute(2 * MS)])))

        seen: list = []
        inj = WorkloadFaults(overload=FaultPlan.burst(5 * MS, SEC, 1.0), compute_factor=1.0)
        instrs = self._drive(inj.wrap(prog(seen)), [3 * MS, 6 * MS, 8 * MS])
        assert [type(i).__name__ for i in instrs] == ["Compute", "Syscall", "Compute"]
        assert instrs[0].duration == 2 * MS and instrs[2].duration == 4 * MS
        # the program is resumed once, with the value after the last item
        assert seen == [8 * MS]
        assert inj.counts == {"overload": 1}

    @pytest.mark.parametrize("window", [(0, SEC), (20 * MS + 500_000, 61 * MS), (30 * MS, 45 * MS)])
    def test_overload_inflates_a_burst_as_its_items_one_by_one(self, window):
        ioctl, write = Syscall(SyscallNr.IOCTL), Syscall(SyscallNr.WRITE)
        items = [Compute(1 * MS), ioctl, Compute(2 * MS), write]

        def prog(bursts, seen):
            for _ in range(30):
                if bursts:
                    now = yield Burst(items)
                else:
                    for item in items:
                        now = yield item
                seen.append(now)
                yield Syscall(SyscallNr.NANOSLEEP, block=SleepFor(1 * MS))

        def run(bursts):
            inj = WorkloadFaults(overload=FaultPlan.burst(*window, 1.0), compute_factor=0.5)
            kernel = Kernel(RoundRobinScheduler(timeslice=1 * MS))
            switches: list = []
            kernel.switch_hook = lambda proc, now: switches.append((proc.pid, now))
            seen: list = []
            proc = kernel.spawn("player", inj.wrap(prog(bursts, seen)))
            kernel.spawn("hog", (instr for instr in [Compute(50 * MS)]))
            kernel.run(200 * MS)
            return seen, switches, proc.cpu_time, proc.syscall_count, inj.counts, kernel.clock

        with_bursts = run(True)
        assert with_bursts == run(False)
        assert with_bursts[4]["overload"] > 0


class TestClockCoarsening:
    def test_quantises_to_grid(self):
        tracer = QTracer()
        ClockCoarsening(FaultPlan.constant(1.0), granularity_ns=4 * MS, seed=0).arm(tracer)
        out = tracer.tamper(_batch([1, 4 * MS + 1, 9 * MS]), 10 * MS)
        assert [e.time for e in out] == [0, 4 * MS, 8 * MS]

    def test_intensity_scales_grain(self):
        tracer = QTracer()
        ClockCoarsening(FaultPlan.constant(0.5), granularity_ns=4 * MS, seed=0).arm(tracer)
        out = tracer.tamper(_batch([3 * MS]), 0)
        assert out[0].time == 2 * MS  # grain 2ms

    def test_chains_with_tamper(self):
        tracer = QTracer()
        TraceTamper(duplicate=FaultPlan.constant(1.0), seed=1).arm(tracer)
        ClockCoarsening(FaultPlan.constant(1.0), granularity_ns=4 * MS, seed=0).arm(tracer)
        out = tracer.tamper(_batch([5 * MS]), 0)
        assert len(out) == 2  # duplicated first...
        assert all(e.time == 4 * MS for e in out)  # ...then both coarsened


class TestSupervisorSaturation:
    def test_zero_plan_registers_nothing(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        sup = Supervisor(0.95)
        inj = SupervisorSaturation(FaultPlan.zero()).arm(sup, kernel)
        assert not inj._armed
        assert sup._tasks == {}

    def test_hogs_compress_then_release(self):
        from repro.sched.cbs import CbsScheduler
        from repro.sim.kernel import Kernel

        kernel = Kernel(CbsScheduler())
        sup = Supervisor(0.95)
        key = sup.register(u_min=0.1)
        sup.submit(key, BandwidthRequest(budget=4 * MS, period=10 * MS))  # 0.4
        SupervisorSaturation(
            FaultPlan.burst(10 * MS, 30 * MS, 1.0), bandwidth=0.9, n_hogs=2, seed=0
        ).arm(sup, kernel)
        kernel.run(20 * MS)
        squeezed = sup.granted(key)
        assert squeezed.bandwidth < 0.4  # compression reached the victim
        assert len(sup._tasks) == 3
        kernel.run(40 * MS)
        assert len(sup._tasks) == 1  # hogs unregistered at window end
        # deliberately stale: unregister does NOT recompute...
        assert sup.granted(key).bandwidth == pytest.approx(squeezed.bandwidth)
        # ...until the watchdog notices the books no longer add up
        sup.watchdog()
        assert sup.granted(key).bandwidth == pytest.approx(0.4, rel=1e-6)


class TestFaultHarness:
    def test_aggregates_and_telemetry(self):
        from repro.obs.telemetry import Telemetry

        tracer = QTracer()
        harness = FaultHarness()
        tamper = harness.add(TraceTamper(drop=FaultPlan.constant(1.0), seed=0))
        tamper.arm(tracer)
        hub = Telemetry()
        harness.attach_telemetry(hub)
        tracer.tamper(_batch([1, 2]), 0)
        assert harness.injected == 2
        assert harness.armed
        assert harness.summary()[0]["kind"] == "trace"
        assert hub.series("faults/trace", "injected") is not None

    def test_unarmed_harness_reports_quiet(self):
        harness = FaultHarness([TraceTamper()])
        assert not harness.armed
        assert harness.injected == 0
