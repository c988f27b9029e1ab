"""Unit and integration tests for the kernel main loop."""

import pytest

from repro.bench.scenarios import GOLDEN_DURATION_NS, build_scenario
from repro.sched import CbsScheduler, RoundRobinScheduler, ServerParams
from repro.sim import (
    Compute,
    Kernel,
    KernelConfig,
    MS,
    ProcState,
    SEC,
    SleepFor,
    SleepUntil,
    Syscall,
    SyscallNr,
    US,
    WaitEvent,
)
from repro.sim.instructions import Fire, Label
from repro.sim.process import Segment


def make_kernel(cs_cost=0):
    return Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=cs_cost))


class TestCompute:
    def test_compute_consumes_exact_time(self):
        k = make_kernel()
        done = []

        def prog():
            t = yield Compute(5 * MS)
            done.append(t)

        k.spawn("p", prog())
        k.run(SEC)
        assert done == [5 * MS]

    def test_cpu_time_accounted(self):
        k = make_kernel()

        def prog():
            yield Compute(3 * MS)
            yield Compute(4 * MS)

        p = k.spawn("p", prog())
        k.run(SEC)
        assert p.cpu_time == 7 * MS
        assert p.state is ProcState.EXITED
        assert p.exit_time == 7 * MS

    def test_zero_compute_is_a_free_clock_read(self):
        k = make_kernel()
        stamps = []

        def prog():
            t = yield Compute(0)
            stamps.append(t)
            t = yield Compute(1 * MS)
            stamps.append(t)

        k.spawn("p", prog())
        k.run(SEC)
        # Compute(0) consumes no time but still hands back the clock
        assert stamps == [0, 1 * MS]

    def test_two_processes_share_cpu(self):
        k = make_kernel()

        def prog():
            yield Compute(10 * MS)

        a = k.spawn("a", prog())
        b = k.spawn("b", prog())
        k.run(SEC)
        assert a.cpu_time == b.cpu_time == 10 * MS
        # serialized on one CPU: the later finisher exits at 20ms
        assert max(a.exit_time, b.exit_time) == 20 * MS


class TestBlocking:
    def test_sleep_until_wakes_on_time(self):
        k = make_kernel()
        woke = []

        def prog():
            t = yield Syscall(SyscallNr.CLOCK_NANOSLEEP, cost=1000, block=SleepUntil(50 * MS))
            woke.append(t)

        k.spawn("p", prog())
        k.run(SEC)
        # exit path costs return_cost after the wake-up
        assert 50 * MS <= woke[0] <= 50 * MS + 10 * US

    def test_sleep_until_past_deadline_does_not_block(self):
        k = make_kernel()
        woke = []

        def prog():
            yield Compute(10 * MS)
            t = yield Syscall(SyscallNr.CLOCK_NANOSLEEP, cost=1000, block=SleepUntil(5 * MS))
            woke.append(t)

        k.spawn("p", prog())
        k.run(SEC)
        assert woke[0] < 11 * MS

    def test_sleep_for(self):
        k = make_kernel()
        woke = []

        def prog():
            yield Compute(1 * MS)
            t = yield Syscall(SyscallNr.NANOSLEEP, cost=1000, block=SleepFor(20 * MS))
            woke.append(t)

        k.spawn("p", prog())
        k.run(SEC)
        assert 21 * MS <= woke[0] <= 21 * MS + 10 * US

    def test_wait_event_and_fire(self):
        k = make_kernel()
        log = []

        def consumer():
            t = yield Syscall(SyscallNr.READ, cost=1000, block=WaitEvent("data"))
            log.append(("consumed", t))

        def producer():
            yield Compute(30 * MS)
            yield Fire("data")

        k.spawn("c", consumer())
        k.spawn("p", producer())
        k.run(SEC)
        assert log and log[0][0] == "consumed"
        assert log[0][1] >= 30 * MS

    def test_wait_event_never_fired_blocks_forever(self):
        k = make_kernel()

        def consumer():
            yield Syscall(SyscallNr.READ, block=WaitEvent("never"))

        p = k.spawn("c", consumer())
        k.run(100 * MS)
        assert p.state is ProcState.BLOCKED
        assert k.clock == 100 * MS

    def test_fire_event_returns_waiter_count(self):
        k = make_kernel()

        def consumer():
            yield Syscall(SyscallNr.READ, block=WaitEvent("x"))

        k.spawn("a", consumer())
        k.spawn("b", consumer())
        k.run(10 * MS)
        assert k.fire_event("x") == 2
        assert k.fire_event("x") == 0


class TestLabelsAndProbes:
    def test_label_probe_invoked_with_payload(self):
        k = make_kernel()
        seen = []

        def prog():
            yield Compute(2 * MS)
            yield Label("mark", {"n": 7})

        k.add_label_probe("mark", lambda proc, now, payload: seen.append((proc.name, now, payload)))
        k.spawn("p", prog())
        k.run(SEC)
        assert seen == [("p", 2 * MS, {"n": 7})]

    def test_unprobed_label_is_noop(self):
        k = make_kernel()

        def prog():
            yield Label("nobody-listens")
            yield Compute(1 * MS)

        p = k.spawn("p", prog())
        k.run(SEC)
        assert p.state is ProcState.EXITED


class TestTimers:
    def test_one_shot_at(self):
        k = make_kernel()
        fired = []
        k.at(25 * MS, lambda now: fired.append(now))
        k.run(SEC)
        assert fired == [25 * MS]

    def test_recurring_every(self):
        k = make_kernel()
        fired = []
        k.every(10 * MS, lambda now: fired.append(now))
        k.run(35 * MS)
        assert fired == [10 * MS, 20 * MS, 30 * MS]

    def test_every_with_custom_start(self):
        k = make_kernel()
        fired = []
        k.every(10 * MS, lambda now: fired.append(now), start=5 * MS)
        k.run(30 * MS)
        assert fired == [5 * MS, 15 * MS, 25 * MS]

    def test_timer_cancel(self):
        k = make_kernel()
        fired = []
        timer = k.every(10 * MS, lambda now: fired.append(now))
        k.run(15 * MS)
        timer.cancel()
        k.run(100 * MS)
        assert fired == [10 * MS]

    def test_invalid_period_rejected(self):
        k = make_kernel()
        with pytest.raises(ValueError):
            k.every(0, lambda now: None)


class TestContextSwitches:
    def test_switch_cost_burns_wall_time(self):
        k = make_kernel(cs_cost=1 * MS)

        def prog():
            yield Compute(10 * MS)

        a = k.spawn("a", prog())
        b = k.spawn("b", prog())
        k.run(SEC)
        # both finish, wall time includes switch costs
        assert max(a.exit_time, b.exit_time) > 20 * MS
        assert k.stats.context_switches >= 2

    def test_no_switch_cost_for_single_process(self):
        k = make_kernel(cs_cost=1 * MS)

        def prog():
            yield Compute(10 * MS)

        a = k.spawn("a", prog())
        k.run(SEC)
        assert a.exit_time == 11 * MS  # exactly one switch-in


class TestSpawnAndRun:
    def test_spawn_at_future_time(self):
        k = make_kernel()

        def prog():
            yield Compute(1 * MS)

        p = k.spawn("late", prog(), at=40 * MS)
        k.run(30 * MS)
        assert p.state is ProcState.NEW or p.start_time is None
        k.run(SEC)
        assert p.start_time == 40 * MS
        assert p.exit_time == 41 * MS

    def test_run_backwards_rejected(self):
        k = make_kernel()
        k.run(10 * MS)
        with pytest.raises(ValueError):
            k.run(5 * MS)

    def test_idle_time_accounted(self):
        k = make_kernel()

        def prog():
            yield Compute(5 * MS)

        k.spawn("p", prog())
        k.run(100 * MS)
        assert k.stats.idle_time == 95 * MS
        assert k.stats.busy_time == 5 * MS

    def test_run_until_exit(self):
        k = make_kernel()

        def prog(d):
            yield Compute(d)

        a = k.spawn("a", prog(5 * MS))
        b = k.spawn("b", prog(10 * MS))
        end = k.run_until_exit([a, b], hard_limit=SEC)
        assert end == 15 * MS

    @pytest.mark.parametrize("lead", [(), (Compute(1 * MS),)])
    def test_unknown_instruction_raises_naming_the_process(self, lead):
        # at the first fetch, and mid-chain after an inline Compute
        k = make_kernel()

        def prog():
            for instr in lead:
                yield instr
            yield 42

        k.spawn("oddball", prog())
        with pytest.raises(TypeError, match="program of oddball yielded 42"):
            k.run(SEC)

    def test_syscall_count(self):
        k = make_kernel()

        def prog():
            for _ in range(5):
                yield Syscall(SyscallNr.WRITE)

        p = k.spawn("p", prog())
        k.run(SEC)
        assert p.syscall_count == 5
        assert k.stats.syscalls == 5


class TestTracerHooks:
    class _CountingTracer:
        def __init__(self, extra=0):
            self.entries = []
            self.exits = []
            self.extra = extra

        def bind(self, kernel):
            pass

        def traces(self, proc):
            return True

        def on_syscall_entry(self, proc, nr, now):
            self.entries.append((proc.pid, nr, now))
            return self.extra

        def on_syscall_exit(self, proc, nr, now):
            self.exits.append((proc.pid, nr, now))
            return 0

    def test_entry_and_exit_recorded(self):
        k = make_kernel()
        tracer = self._CountingTracer()
        k.add_tracer(tracer)

        def prog():
            yield Syscall(SyscallNr.IOCTL, cost=2 * US)

        k.spawn("p", prog())
        k.run(SEC)
        assert len(tracer.entries) == 1
        assert len(tracer.exits) == 1
        assert tracer.exits[0][2] - tracer.entries[0][2] == 2 * US

    def test_tracer_extra_cost_charged(self):
        k = make_kernel()
        tracer = self._CountingTracer(extra=1 * MS)
        k.add_tracer(tracer)

        def prog():
            yield Syscall(SyscallNr.IOCTL, cost=1 * US)

        p = k.spawn("p", prog())
        k.run(SEC)
        assert p.cpu_time >= 1 * MS

    def test_remove_tracer(self):
        k = make_kernel()
        tracer = self._CountingTracer()
        k.add_tracer(tracer)
        k.remove_tracer(tracer)

        def prog():
            yield Syscall(SyscallNr.IOCTL)

        k.spawn("p", prog())
        k.run(SEC)
        assert tracer.entries == []

    def test_blocking_syscall_exit_after_wakeup(self):
        k = make_kernel()
        tracer = self._CountingTracer()
        k.add_tracer(tracer)

        def prog():
            yield Syscall(SyscallNr.CLOCK_NANOSLEEP, cost=1000, block=SleepUntil(50 * MS))

        k.spawn("p", prog())
        k.run(SEC)
        assert tracer.entries[0][2] == 0
        assert tracer.exits[0][2] >= 50 * MS


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            k = make_kernel()
            tracer = TestTracerHooks._CountingTracer()
            k.add_tracer(tracer)

            def prog(n):
                for i in range(n):
                    yield Compute((i % 3 + 1) * MS)
                    yield Syscall(SyscallNr.WRITE)

            k.spawn("a", prog(20))
            k.spawn("b", prog(15))
            k.run(SEC)
            return tracer.entries

        assert build() == build()


class TestSegmentRefill:
    def test_one_segment_per_process_for_life(self, monkeypatch):
        # the kernel refills each process's own segment in place, so a
        # run builds one per process however many instructions it runs
        # (the allocating kernel built 3,529 here: several per job)
        made, blocked = [], []
        init = Segment.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Segment, "__init__", counting_init)
        kernel = build_scenario("cbs-background")
        scheduler = kernel.scheduler
        on_block = scheduler.on_block

        def counting_on_block(proc, now):
            # every block, inline or through ``_block``, and every exit
            # through the default ``Scheduler.on_exit``
            blocked.append(True)
            on_block(proc, now)

        scheduler.on_block = counting_on_block
        kernel.run(GOLDEN_DURATION_NS)
        assert kernel.stats.syscalls > 1_000 and sum(blocked) > 100
        # at most one per blocking call plus one per process; in fact one
        # per process
        assert len(made) <= sum(blocked) + len(kernel.processes)
        assert len(made) == len(kernel.processes)

    def test_segment_fields_are_whole_after_each_refill(self):
        # a refill rewrites every field: a Compute after a blocking call
        # leaves no syscall, block or entry stamp behind
        k = make_kernel()
        seen = []

        def prog():
            yield Syscall(SyscallNr.NANOSLEEP, block=SleepFor(1 * MS))
            yield Compute(2 * MS)

        proc = k.spawn("p", prog())
        k.at(2 * MS, lambda now: seen.append(proc.segment))
        k.run(10 * MS)
        (segment,) = seen
        assert segment is proc.own_segment
        assert (segment.kind.value, segment.syscall, segment.block, segment.entry_time) == (
            "user",
            None,
            None,
            -1,
        )


class TestChainCharges:
    """A chain charges the scheduler where its state is read, not once
    per segment (``Kernel._settle``)."""

    @staticmethod
    def cbs_kernel(budget=5 * MS):
        """A CBS kernel with one hard server; ``log`` records every
        ``charge`` and ``on_ready`` call, by process name."""
        cbs = CbsScheduler()
        kernel = Kernel(cbs, KernelConfig(context_switch_cost=0))
        server = cbs.create_server(ServerParams(budget, 10 * MS, "hard"))
        log = []
        charge, on_ready = cbs.charge, cbs.on_ready

        def logged_charge(proc, delta, now):
            log.append(("charge", proc.name, delta, now))
            charge(proc, delta, now)

        def logged_on_ready(proc, now):
            log.append(("ready", proc.name, now))
            on_ready(proc, now)

        cbs.charge, cbs.on_ready = logged_charge, logged_on_ready
        return kernel, cbs, server, log

    @staticmethod
    def waiter():
        yield Syscall(SyscallNr.FUTEX, block=WaitEvent("go"))

    def test_untraced_segments_in_one_budget_are_charged_once(self):
        kernel, cbs, server, log = self.cbs_kernel()

        def prog():
            for _ in range(5):
                yield Compute(100 * US)
                yield Syscall(SyscallNr.WRITE, cost=10 * US)

        proc = kernel.spawn("p", prog())
        cbs.attach(proc, server)
        kernel.run(2 * MS)
        # ten segments, one charge, settled when the process exits
        assert proc.syscall_count == 5
        assert [e for e in log if e[0] == "charge"] == [("charge", "p", 550 * US, 550 * US)]
        assert proc.cpu_time == server.consumed == kernel.stats.busy_time == 550 * US

    def test_direct_fire_event_splits_the_charge_at_the_wake(self):
        kernel, cbs, server, log = self.cbs_kernel()

        def runner():
            for _ in range(3):
                yield Compute(100 * US)
            kernel.fire_event("go")
            for _ in range(3):
                yield Compute(100 * US)

        # the waiter stays in the background class and blocks at 2 us
        kernel.spawn("waiter", self.waiter())
        cbs.attach(kernel.spawn("runner", runner(), at=100 * US), server)
        kernel.run(2 * MS)
        start = log.index(("ready", "runner", 100 * US)) + 1
        assert log[start : start + 3] == [
            ("charge", "runner", 300 * US, 400 * US),
            ("ready", "waiter", 400 * US),
            ("charge", "runner", 300 * US, 700 * US),
        ]

    def test_budget_running_out_at_a_segment_end_acts_before_the_fetch(self):
        kernel, cbs, server, log = self.cbs_kernel(budget=1 * MS)
        hook_calls, seen = [], []
        server.exhaustion_hook = lambda srv, now: hook_calls.append(now)

        def prog():
            yield Compute(400 * US)
            yield Compute(600 * US)
            # fetched as the budget runs out: the exhaustion came first
            seen.append(server.exhaustions)
            yield Compute(100 * US)

        cbs.attach(kernel.spawn("p", prog()), server)
        kernel.run(20 * MS)
        assert hook_calls == [1 * MS] and seen == [1]
        assert log[1] == ("charge", "p", 1 * MS, 1 * MS)

    def test_unknown_instruction_mid_chain_settles_and_leaves_no_chain(self):
        kernel, cbs, server, log = self.cbs_kernel()
        waiter = kernel.spawn("waiter", self.waiter())
        kernel.at(2 * MS, lambda now: kernel.fire_event("go"))

        def prog():
            yield Compute(300 * US)
            yield Syscall(SyscallNr.WRITE, cost=10 * US)
            yield 42

        proc = kernel.spawn("p", prog(), at=100 * US)
        cbs.attach(proc, server)
        with pytest.raises(TypeError, match="program of p yielded 42"):
            kernel.run(5 * MS)
        assert proc.cpu_time == server.consumed == 310 * US
        assert kernel.stats.busy_time == 312 * US
        # running on: p exits, and the wake at 2 ms charges nothing to p
        kernel.run(5 * MS)
        assert waiter.state is ProcState.EXITED and proc.state is ProcState.EXITED
        assert [e for e in log if e[:2] == ("charge", "p")] == [("charge", "p", 310 * US, 410 * US)]
        assert proc.cpu_time == 310 * US


class TestInlineSleep:
    """A sleep that wakes later blocks inside ``Kernel.run``'s chain; a
    ``WaitEvent``, an expired sleep and a traced return take ``_advance``."""

    class _TracesOne(TestTracerHooks._CountingTracer):
        """Traces the process called ``name`` only."""

        def __init__(self, name):
            super().__init__()
            self.name = name

        def traces(self, proc):
            return proc.name == self.name

    @staticmethod
    def helper_log(kernel):
        """Log each ``_advance`` call that completes a segment (process,
        segment kind, block type) and each ``_block`` call (process, spec
        type); an ``_advance`` call that only fetches is not logged."""
        calls = []
        advance, block = kernel._advance, kernel._block

        def logged_advance(proc, instr=None):
            seg = proc.segment
            if seg is not None:
                calls.append(("complete", proc.name, seg.kind.value, type(seg.block).__name__))
            advance(proc, instr)

        def logged_block(proc, spec, now):
            calls.append(("block", proc.name, type(spec).__name__))
            return block(proc, spec, now)

        kernel._advance, kernel._block = logged_advance, logged_block
        return calls

    @pytest.mark.parametrize("traced", [False, True])
    def test_future_sleeps_never_reach_the_helpers(self, traced):
        kernel, cbs, server, log = TestChainCharges.cbs_kernel()
        calls = self.helper_log(kernel)
        tracer = self._TracesOne("p" if traced else "nobody")
        kernel.add_tracer(tracer)
        blocks, woke = [], []
        on_block = cbs.on_block

        def logged_on_block(proc, now):
            blocks.append(now)
            on_block(proc, now)

        cbs.on_block = logged_on_block

        def prog():
            yield Compute(100 * US)
            woke.append((yield Syscall(SyscallNr.NANOSLEEP, cost=10 * US, block=SleepFor(1 * MS))))
            yield Compute(100 * US)
            sleep = SleepUntil(3 * MS)
            woke.append((yield Syscall(SyscallNr.CLOCK_NANOSLEEP, cost=10 * US, block=sleep)))
            yield Compute(100 * US)

        proc = kernel.spawn("p", prog())
        cbs.attach(proc, server)
        kernel.run(5 * MS)
        # two sleeps, then the exit (the default ``on_exit`` blocks)
        assert blocks == [110 * US, 1_220_500, 3_100_500]
        # each return runs the default 500 ns after its wake-up
        assert woke == [1_110_500, 3_000_500]
        # no sleep's entry reached ``_advance`` or ``_block``
        if traced:
            # the returns still take ``_advance`` and the exit hook
            assert calls == [("complete", "p", "syscall_return", "NoneType")] * 2
            assert [e[2] for e in tracer.entries] == [100 * US, 1_210_500]
            assert [e[2] for e in tracer.exits] == woke
        else:
            assert calls == [] and tracer.entries == tracer.exits == []

    def test_a_wait_an_expired_sleep_and_a_traced_return_take_the_helpers(self):
        kernel, cbs, server, log = TestChainCharges.cbs_kernel()
        calls = self.helper_log(kernel)
        kernel.add_tracer(self._TracesOne("traced"))
        kernel.at(1 * MS, lambda now: kernel.fire_event("go"))

        def untraced():
            yield Compute(100 * US)
            yield Syscall(SyscallNr.FUTEX, block=WaitEvent("go"))
            yield Compute(100 * US)
            yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(1 * MS))
            yield Compute(100 * US)

        def traced():
            yield Syscall(SyscallNr.NANOSLEEP, block=SleepFor(2 * MS))
            yield Compute(100 * US)

        for name, body in (("untraced", untraced()), ("traced", traced())):
            cbs.attach(kernel.spawn(name, body), server)
        kernel.run(5 * MS)
        assert all(p.state is ProcState.EXITED for p in kernel.processes.values())
        assert [c for c in calls if c[1] == "untraced"] == [
            ("complete", "untraced", "syscall", "WaitEvent"),
            ("block", "untraced", "WaitEvent"),
            ("complete", "untraced", "syscall", "SleepUntil"),
            ("block", "untraced", "SleepUntil"),
        ]
        # the sleep's entry blocked inline; its return takes the exit hook
        assert [c for c in calls if c[1] == "traced"] == [
            ("complete", "traced", "syscall_return", "NoneType")
        ]
