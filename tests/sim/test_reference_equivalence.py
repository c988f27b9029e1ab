"""Segment chaining is invisible: :class:`Kernel` against the reference loop.

:class:`tests.sim.reference_kernel.ReferenceKernel` dispatches, picks,
peeks, asks for the scheduler's bound and charges again after every
segment.  :class:`repro.sim.kernel.Kernel` skips all of that while it
chains the picked process's segments, and charges the chain's CPU only
where scheduler state is read.  Both must produce the same run, compared
through everything a run leaves behind: the switch log, the scheduler
log, every value sent into a program, tracer and probe calls, the
kernel's stats, each process's accounting and latency moments (floats by
``float.hex``), and the scheduler's cycle counters.

The scheduler log is one stream of ``charge``, ``on_ready``,
``on_block`` and ``on_exit`` calls, Label probes and CBS budget
exhaustions, in call order.  Adjacent charges of one process are merged
into one entry (the sum, stamped with the last ``now``): the scheduler
contract's composition clause says the merged charge leaves the same
policy state, and only the merged logs can be equal.  Every other entry
separates two charges, so the stream still checks exactly where each
charge is settled against every state change.

The property test draws random programs over every instruction kind
(including probes that reach scheduler state, bodies that call into the
kernel directly, and traced-set changes from a body, a probe and a
timer) under every uniprocessor scheduler and three ways of running: one
``run``, chunked runs, and chunks with ``stop_before_switch``.  The
deterministic tests below it pin one chain end each: without that end
the chain would run past where the reference re-decides.  One pins a
calendar cancel, which is no chain end.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    CbsScheduler,
    EdfScheduler,
    FixedPriorityScheduler,
    RoundRobinScheduler,
    StrideScheduler,
)
from repro.sched.cbs import ServerParams
from repro.sim import (
    Compute,
    Kernel,
    KernelConfig,
    MS,
    SleepFor,
    SleepUntil,
    Syscall,
    SyscallNr,
    US,
    WaitEvent,
)
from repro.sim.instructions import Fire, Label
from repro.tracer.qtrace import QTracer
from tests.sim.reference_kernel import ReferenceKernel

SCHEDULERS = ("rr", "cbs-hard", "cbs-soft", "cbs-background", "edf", "fp", "stride")
KEYS = ("a", "b")
WAIT_GO = Syscall(SyscallNr.FUTEX, block=WaitEvent("go"))
NO_SWITCH_COST = KernelConfig(context_switch_cost=0)


class _CountingTracer:
    """Traces even pids, each flipped by ``toggle``; charges
    ``entry``/``exit`` extra ns per call."""

    def __init__(self, entry: int, exit: int, log: list) -> None:
        self.entry = entry
        self.exit = exit
        self.log = log
        self.flipped: set[int] = set()
        self.kernels: list = []

    def bind(self, kernel) -> None:
        self.kernels.append(kernel)

    def toggle(self, pid: int) -> None:
        self.flipped ^= {pid}
        for kernel in self.kernels:
            kernel.tracing_changed()

    def traces(self, proc) -> bool:
        return (proc.pid % 2 == 0) != (proc.pid in self.flipped)

    def on_syscall_entry(self, proc, nr, now: int) -> int:
        self.log.append(("entry", proc.pid, nr.value, now))
        return self.entry

    def on_syscall_exit(self, proc, nr, now: int) -> int:
        self.log.append(("exit", proc.pid, nr.value, now))
        return self.exit


class _LoggingQTracer(QTracer):
    """qtrace that logs every hook call it answers, with its cost."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def on_syscall_entry(self, proc, nr, now: int) -> int:
        cost = super().on_syscall_entry(proc, nr, now)
        self.log.append(("entry", proc.pid, nr.value, now, cost))
        return cost

    def on_syscall_exit(self, proc, nr, now: int) -> int:
        cost = super().on_syscall_exit(proc, nr, now)
        self.log.append(("exit", proc.pid, nr.value, now, cost))
        return cost


def _program(kernel: Kernel, ops: list[tuple[int, int]], reps: int, seen: list, retrace):
    """A program over every instruction kind; ``seen`` logs what it is sent.

    ``retrace(mag)`` changes the traced set (see ``_build``)."""
    pending = []
    for _ in range(reps):
        for kind, mag in ops:
            if kind == 0:
                now = yield Compute(mag * 10 * US)
            elif kind == 1:
                now = yield Syscall(SyscallNr.WRITE, cost=mag * US)
            elif kind == 2:
                sleep = SleepFor(mag * 100 * US)
                now = yield Syscall(SyscallNr.NANOSLEEP, cost=1 * US, block=sleep)
            elif kind == 3:
                # mag == 0 sleeps until a deadline already passed: a no-op block
                wake = (seen[-1] if seen else 0) + (mag - 1) * 100 * US
                now = yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(max(wake, 0)))
            elif kind == 4:
                now = yield Syscall(SyscallNr.FUTEX, block=WaitEvent(KEYS[mag % 2]))
            elif kind == 5:
                now = yield Fire(KEYS[mag % 2])
            elif kind == 6:
                now = yield Label("probe", {"mag": mag})
            elif kind == 7:
                # a body that reaches the kernel directly, as Disk.submit does
                kernel.fire_event(KEYS[mag % 2])
                now = yield Compute(mag * US)
            elif kind == 8:
                # a timer that changes the traced set
                when = kernel.clock + mag * 50 * US
                pending.append(kernel.at(when, lambda t, m=mag: retrace(m)))
                now = yield Compute(mag * 5 * US)
            elif kind == 9:
                if pending:
                    pending.pop(0).cancel()
                now = yield Compute(mag * 5 * US)
            else:
                # a body that changes the traced set between two syscalls
                retrace(mag)
                now = yield Syscall(SyscallNr.WRITE, cost=mag * US)
            seen.append(now)
    if ops and ops[-1] == (9, 20):
        raise RuntimeError("crash on purpose")


op = st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=20))
proc_spec = st.tuples(
    st.lists(op, min_size=1, max_size=10),
    st.integers(min_value=1, max_value=4),  # reps
    st.integers(min_value=0, max_value=3),  # admission delay, ms (0 = now)
)
scenario = st.fixed_dictionaries(
    {
        "sched": st.sampled_from(SCHEDULERS),
        "procs": st.lists(proc_spec, min_size=1, max_size=4),
        "servers": st.lists(
            st.tuples(st.integers(1, 6), st.integers(6, 20)),  # budget, period (ms)
            min_size=1,
            max_size=2,
        ),
        "cs_cost": st.sampled_from([0, 2_000, 50_000]),
        "tracer": st.sampled_from([None, (0, 0), (3_000, 0), (2_000, 7_000)]),
        "slice_us": st.integers(min_value=50, max_value=4_000),
        "horizon_ms": st.integers(min_value=5, max_value=120),
        "cuts": st.lists(st.integers(min_value=1, max_value=119_999), max_size=6),
        "schedule": st.sampled_from(["single", "chunked", "stop_before_switch"]),
    }
)


def _scheduler(kind: str, slice_us: int):
    slice_ns = slice_us * US
    if kind == "rr":
        return RoundRobinScheduler(timeslice=slice_ns)
    if kind.startswith("cbs"):
        return CbsScheduler(background_slice=slice_ns, intra_server_slice=slice_ns // 2 + 1)
    if kind == "edf":
        return EdfScheduler()
    if kind == "fp":
        return FixedPriorityScheduler()
    return StrideScheduler(quantum=slice_ns)


def _record(kernel: Kernel) -> dict[str, list]:
    """Log every context switch and every scheduler call of ``kernel``;
    adjacent charges of one process merge (see the module docstring)."""
    log: dict[str, list] = {"switch": [], "sched": []}
    kernel.switch_hook = lambda proc, now: log["switch"].append((proc.pid, now))
    sched = kernel.scheduler
    stream = log["sched"]
    plain_charge = sched.charge

    def charge(proc, delta, now):
        last = stream[-1] if stream else None
        if last is not None and last[0] == "charge" and last[1] == proc.pid:
            stream[-1] = ("charge", proc.pid, last[2] + delta, now)
        else:
            stream.append(("charge", proc.pid, delta, now))
        plain_charge(proc, delta, now)

    def logged(name, plain):
        def call(proc, now):
            stream.append((name, proc.pid, now))
            plain(proc, now)

        return call

    sched.charge = charge
    for name in ("on_ready", "on_block", "on_exit"):
        setattr(sched, name, logged(name, getattr(sched, name)))
    return log


def _build(kernel_cls, sc: dict):
    sched = _scheduler(sc["sched"], sc["slice_us"])
    kernel = kernel_cls(sched, KernelConfig(context_switch_cost=sc["cs_cost"]))
    log = _record(kernel)
    log.update(tracer=[], probe=[])
    if sc["tracer"] is not None:
        kernel.add_tracer(_CountingTracer(*sc["tracer"], log["tracer"]))

    def retrace(mag: int) -> None:
        """Flip whether pid ``1000 + mag % 4`` is traced; with no tracer
        yet, attach one instead."""
        if kernel.tracers:
            kernel.tracers[0].toggle(1000 + mag % 4)
        else:
            kernel.add_tracer(_CountingTracer(1_000, 2_000, log["tracer"]))

    def exhausted(server, now: int) -> None:
        """Log a budget exhaustion and change the traced set, which the
        next fetch sees only if the exhaustion came before it."""
        log["sched"].append(("exhausted", server.sid, now))
        retrace(server.exhaustions)

    servers = []
    if sc["sched"].startswith("cbs"):
        policy = sc["sched"].split("-")[1]
        for budget_ms, period_ms in sc["servers"]:
            params = ServerParams(budget_ms * MS, period_ms * MS, policy)
            servers.append(sched.create_server(params))
            servers[-1].exhaustion_hook = exhausted

    def probe(proc, now, payload):
        mag = payload["mag"]
        log["probe"].append((proc.pid, now, mag))
        log["sched"].append(("probe", proc.pid, now))
        server = sched.server_of(proc) if servers else None
        if server is not None:
            budget = max(mag, 1) * 300 * US
            period = max(server.params.period, budget)
            sched.set_params(server, ServerParams(budget, period, server.params.policy))
        else:
            kernel.at(now + mag * 20 * US, lambda t: kernel.fire_event(KEYS[mag % 2]))
        if mag % 2:
            retrace(mag)

    kernel.add_label_probe("probe", probe)
    procs, seen = [], []
    for i, (ops, reps, delay_ms) in enumerate(sc["procs"]):
        seen.append([])
        program = _program(kernel, ops, reps, seen[-1], retrace)
        proc = kernel.spawn(f"p{i}", program, at=delay_ms * MS or None)
        procs.append(proc)
        if sc["sched"] == "edf":
            sched.attach(proc, rel_deadline=(i + 1) * 3 * MS)
        elif sc["sched"] == "fp":
            sched.attach(proc, priority=i % 3)
        elif sc["sched"] == "stride":
            sched.attach(proc, tickets=(i + 1) * 10)
        elif servers and i % (len(servers) + 1) < len(servers):
            # the last slot stays in the background class; more
            # processes than servers gives multi-member servers
            sched.attach(proc, servers[i % (len(servers) + 1)])
    return kernel, procs, seen, log


def _drive(kernel: Kernel, sc: dict) -> list[int]:
    horizon = sc["horizon_ms"] * MS
    clocks = []
    if sc["schedule"] != "single":
        stop = sc["schedule"] == "stop_before_switch"
        for cut in sorted({c * 1_000 % horizon for c in sc["cuts"]}):
            if cut >= kernel.clock:
                kernel.run(cut, stop_before_switch=stop)
                clocks.append(kernel.clock)
    kernel.run(horizon)
    clocks.append(kernel.clock)
    return clocks


def _outcome(kernel: Kernel, procs, seen, log, clocks) -> dict:
    per_proc = []
    for proc in procs:
        lat = proc.sched_latency
        per_proc.append(
            (
                proc.pid,
                proc.cpu_time,
                proc.syscall_count,
                proc.exit_time,
                proc.start_time,
                proc.state.value,
                type(proc.crash).__name__,
                lat.n,
                lat.total,
                lat.max,
                lat._mean.hex(),
                lat._m2.hex(),
            )
        )
    return {
        "clocks": clocks,
        "stats": dataclasses.asdict(kernel.stats),
        "procs": per_proc,
        "seen": seen,
        "counters": kernel.scheduler.cycle_counters(),
        **log,
    }


def _run(kernel_cls, sc: dict) -> dict:
    kernel, procs, seen, log = _build(kernel_cls, sc)
    clocks = _drive(kernel, sc)
    return _outcome(kernel, procs, seen, log, clocks)


def assert_same_run(sc: dict) -> dict:
    expected = _run(ReferenceKernel, sc)
    actual = _run(Kernel, sc)
    for key in expected:
        assert actual[key] == expected[key], key
    return actual


@settings(max_examples=150, deadline=None)
@given(sc=scenario)
def test_chained_kernel_matches_reference(sc):
    assert_same_run(sc)


# ---------------------------------------------------------------------------
# one deterministic test per chain end
# ---------------------------------------------------------------------------


def _computes(n: int, each: int, seen: list, tail=()):
    def body():
        for _ in range(n):
            seen.append((yield Compute(each)))
        for instr in tail:
            seen.append((yield instr))

    return body()


def _pair(kernel_cls, sched, build):
    """Run ``build(kernel, seen)`` to 5 ms; return the comparable outcome."""
    kernel = kernel_cls(sched(), NO_SWITCH_COST)
    log = _record(kernel)
    seen: list = []
    extra = build(kernel, seen)
    kernel.run(5 * MS)
    procs = [kernel.processes[pid] for pid in sorted(kernel.processes)]
    return {
        "clock": kernel.clock,
        "procs": [(p.pid, p.cpu_time, p.syscall_count, p.exit_time, p.state.value) for p in procs],
        "seen": seen,
        "extra": extra,
        **log,
    }


def assert_chain_end(sched, build):
    assert _pair(Kernel, sched, build) == _pair(ReferenceKernel, sched, build)


def _two_servers(kernel):
    """Server ``slow`` (late deadline, big budget) and ``fast`` (early deadline)."""
    cbs = kernel.scheduler
    slow = cbs.create_server(ServerParams(8 * MS, 20 * MS, "hard"), "slow")
    fast = cbs.create_server(ServerParams(1 * MS, 2 * MS, "hard"), "fast")
    return cbs, slow, fast


class TestChainEnds:
    def test_bound_runs_out(self):
        # RR with two processes: the 1 ms slice expires inside the chain
        def build(kernel, seen):
            kernel.spawn("a", _computes(12, 300 * US, seen))
            kernel.spawn("b", _computes(12, 300 * US, seen))

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=1 * MS), build)

    def test_calendar_event_falls_due(self):
        def build(kernel, seen):
            fired = []
            kernel.spawn("a", _computes(12, 300 * US, seen))
            kernel.spawn("b", _computes(12, 300 * US, seen))
            kernel.at(1_050 * US, lambda now: fired.append(kernel.clock))
            return fired

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)

    def test_until_is_reached(self):
        def run(kernel_cls):
            kernel = kernel_cls(RoundRobinScheduler(timeslice=4 * MS), NO_SWITCH_COST)
            seen: list = []
            kernel.spawn("a", _computes(12, 300 * US, seen))
            kernel.spawn("b", _computes(12, 300 * US, seen))
            clocks = []
            for until in (1_050 * US, 2_500 * US, 5 * MS):
                kernel.run(until)
                clocks.append(kernel.clock)
            return clocks, seen

        assert run(Kernel) == run(ReferenceKernel)
        assert run(Kernel)[0] == [1_050 * US, 2_500 * US, 5 * MS]

    def test_admission(self):
        # a process spawned mid-chain and handed to an urgent server
        def build(kernel, seen):
            cbs, slow, fast = _two_servers(kernel)

            def parent():
                seen.append((yield Compute(200 * US)))
                child = kernel.spawn("child", _computes(3, 100 * US, seen))
                cbs.attach(child, fast)
                for _ in range(8):
                    seen.append((yield Compute(200 * US)))

            cbs.attach(kernel.spawn("parent", parent()), slow)

        assert_chain_end(CbsScheduler, build)

    def test_wake_by_fire(self):
        def build(kernel, seen):
            cbs, slow, fast = _two_servers(kernel)
            waiter = kernel.spawn("waiter", _computes(3, 100 * US, seen, [WAIT_GO]))
            cbs.attach(waiter, fast)
            tail = [Fire("go")] + [Compute(200 * US)] * 8
            cbs.attach(kernel.spawn("runner", _computes(2, 500 * US, seen, tail)), slow)

        assert_chain_end(CbsScheduler, build)

    def test_wake_by_direct_fire_event(self):
        def build(kernel, seen):
            cbs, slow, fast = _two_servers(kernel)
            waiter = kernel.spawn("waiter", _computes(3, 100 * US, seen, [WAIT_GO]))
            cbs.attach(waiter, fast)

            def runner():
                for _ in range(2):
                    seen.append((yield Compute(500 * US)))
                kernel.fire_event("go")
                for _ in range(8):
                    seen.append((yield Compute(200 * US)))

            cbs.attach(kernel.spawn("runner", runner()), slow)

        assert_chain_end(CbsScheduler, build)

    def test_block(self):
        # after a blocking call the process still owes its return path;
        # the chain must not run it while the process waits.  (A sleep
        # would also post its wake-up, which ends the chain on its own.)
        def build(kernel, seen):
            wait = Syscall(SyscallNr.FUTEX, cost=50 * US, block=WaitEvent("never"))
            kernel.spawn("a", _computes(2, 300 * US, seen, [wait] + [Compute(300 * US)] * 4))
            kernel.spawn("b", _computes(12, 300 * US, seen))

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)

    def test_exit(self):
        # the exited process has no segment left, which ends the chain
        # even before the flag does; run_until_exit stops at the exit
        def run(kernel_cls):
            kernel = kernel_cls(RoundRobinScheduler(timeslice=4 * MS), NO_SWITCH_COST)
            seen: list = []
            a = kernel.spawn("a", _computes(3, 300 * US, seen))
            b = kernel.spawn("b", _computes(12, 300 * US, seen))
            last = kernel.run_until_exit([a], 5 * MS)
            return last, kernel.clock, a.exit_time, b.cpu_time, seen

        assert run(Kernel) == run(ReferenceKernel)
        assert run(Kernel)[:2] == (900 * US, 900 * US)

    def test_label_probe_reaches_the_scheduler(self):
        # the probe shrinks the running server's budget mid-chain
        def build(kernel, seen):
            cbs, slow, _ = _two_servers(kernel)

            def tighten(proc, now, payload):
                cbs.set_params(slow, ServerParams(1 * MS, 20 * MS))

            kernel.add_label_probe("tighten", tighten)
            tail = [Label("tighten")] + [Compute(300 * US)] * 8
            cbs.attach(kernel.spawn("runner", _computes(2, 300 * US, seen, tail)), slow)
            kernel.spawn("background", _computes(12, 300 * US, seen))

        assert_chain_end(CbsScheduler, build)

    def test_calendar_push(self):
        # the body posts an event earlier than the one the chain cached
        # and cancels a later one, so the number of pending events does
        # not move
        def build(kernel, seen):
            fired = []
            far = kernel.at(4 * MS, lambda now: fired.append(("far", kernel.clock)))

            def runner():
                for _ in range(2):
                    seen.append((yield Compute(300 * US)))
                kernel.at(kernel.clock + 150 * US, lambda now: fired.append(("near", kernel.clock)))
                far.cancel()
                for _ in range(8):
                    seen.append((yield Compute(300 * US)))

            kernel.spawn("runner", runner())
            kernel.spawn("other", _computes(12, 300 * US, seen))
            return fired

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)

    def test_calendar_cancel(self):
        # cancelling the event the chain would stop at is no chain end:
        # the chain cuts the segment at the stale limit and charges it in
        # two pieces that compose, where the reference, peeking again,
        # charges it in one; the runs must still be equal
        def build(kernel, seen):
            soon = kernel.at(1_050 * US, lambda now: None)

            def runner():
                for _ in range(2):
                    seen.append((yield Compute(300 * US)))
                soon.cancel()
                for _ in range(8):
                    seen.append((yield Compute(300 * US)))

            kernel.spawn("runner", runner())
            kernel.spawn("other", _computes(12, 300 * US, seen))

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)

    def test_no_bound_repicks_every_segment(self):
        # a lone stride process crosses several quanta; its pass moves
        # the global pass at every pick, which sets a newcomer's pass
        def build(kernel, seen):
            stride = kernel.scheduler
            stride.attach(kernel.spawn("a", _computes(14, 300 * US, seen)), tickets=10)
            late = kernel.spawn("late", _computes(6, 300 * US, seen), at=2_100 * US)
            stride.attach(late, tickets=30)

        assert_chain_end(lambda: StrideScheduler(quantum=500 * US), build)

    def test_traced_syscalls_take_the_out_of_line_path(self):
        def build(kernel, seen):
            calls: list = []
            kernel.add_tracer(_CountingTracer(3 * US, 5 * US, calls))
            write = Syscall(SyscallNr.WRITE, cost=20 * US)
            kernel.spawn("a", _computes(2, 300 * US, seen, [write, Compute(300 * US)] * 4))
            kernel.spawn("b", _computes(2, 300 * US, seen, [write, Compute(300 * US)] * 4))
            return calls

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)

    def test_program_traces_itself_mid_chain(self):
        # the body starts tracing itself between two non-blocking calls
        # of one chain, and stops two calls later
        def build(kernel, seen):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            kernel.add_tracer(tracer)
            write = Syscall(SyscallNr.WRITE, cost=20 * US)

            def runner():
                seen.append((yield Compute(300 * US)))
                seen.append((yield write))
                tracer.trace_pid(me.pid)
                for _ in range(2):
                    seen.append((yield write))
                tracer.untrace_pid(me.pid)
                for _ in range(2):
                    seen.append((yield write))
                for _ in range(4):
                    seen.append((yield Compute(300 * US)))

            me = kernel.spawn("runner", runner())
            kernel.spawn("other", _computes(12, 300 * US, seen))
            return calls

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)
        calls = _pair(Kernel, lambda: RoundRobinScheduler(timeslice=4 * MS), build)["extra"]
        assert [c[0] for c in calls] == ["entry", "exit", "entry", "exit"]

    def test_traced_while_asleep_takes_the_exit_hook(self):
        # untraced returns complete inline; a timer starts tracing the
        # process while it sleeps, so its return must take the exit hook
        def build(kernel, seen):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            kernel.add_tracer(tracer)
            sleep = Syscall(SyscallNr.NANOSLEEP, cost=10 * US, block=SleepFor(1 * MS))
            tail = [sleep] + [Compute(300 * US)] * 4
            sleeper = kernel.spawn("sleeper", _computes(2, 300 * US, seen, tail))
            kernel.at(1 * MS, lambda now: tracer.trace_pid(sleeper.pid))
            kernel.spawn("other", _computes(12, 300 * US, seen))
            return calls

        def rr():
            return RoundRobinScheduler(timeslice=4 * MS)

        assert_chain_end(rr, build)
        calls = _pair(Kernel, rr, build)["extra"]
        assert [c[0] for c in calls] == ["exit"]

    def test_body_attaches_a_tracer_mid_chain(self):
        # a kernel with no tracer gains one that traces the running body
        def build(kernel, seen):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            write = Syscall(SyscallNr.WRITE, cost=20 * US)

            def runner():
                seen.append((yield Compute(300 * US)))
                seen.append((yield write))
                tracer.trace_pid(me.pid)
                kernel.add_tracer(tracer)
                for _ in range(3):
                    seen.append((yield write))
                for _ in range(4):
                    seen.append((yield Compute(300 * US)))

            me = kernel.spawn("runner", runner())
            kernel.spawn("other", _computes(12, 300 * US, seen))
            return calls

        assert_chain_end(lambda: RoundRobinScheduler(timeslice=4 * MS), build)
        calls = _pair(Kernel, lambda: RoundRobinScheduler(timeslice=4 * MS), build)["extra"]
        assert len(calls) == 6

    def test_exhaustion_hook_traces_the_running_process(self):
        # the budget runs out exactly as a non-blocking call completes,
        # and the hook that ``charge`` calls starts tracing its caller:
        # the call's exit is logged, as the reference does
        def build(kernel, seen):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            kernel.add_tracer(tracer)
            cbs = kernel.scheduler
            server = cbs.create_server(ServerParams(1 * MS, 10 * MS, "hard"), "one")
            server.exhaustion_hook = lambda srv, now: tracer.trace_pid(me.pid)
            write = Syscall(SyscallNr.WRITE, cost=20 * US)
            tail = [write, Compute(100 * US), write]
            me = kernel.spawn("runner", _computes(1, 980 * US, seen, tail))
            cbs.attach(me, server)
            kernel.spawn("background", _computes(12, 300 * US, seen))
            return calls

        assert_chain_end(CbsScheduler, build)
        calls = _pair(Kernel, CbsScheduler, build)["extra"]
        assert calls[0][:2] == ("exit", 1000) and calls[0][3] == 1 * MS

