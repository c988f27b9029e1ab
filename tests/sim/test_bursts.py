"""A ``Burst`` is its items yielded one by one, resumed once.

:class:`repro.sim.instructions.Burst` has a narrow spec: yielding a burst
means yielding its ``Compute`` and non-blocking ``Syscall`` items in
order, except that the program is resumed once, after the last item,
with the clock of that instant.  ``Kernel.run`` completes a burst in one
step when nothing could act between its items, and runs the items one
at a time otherwise; either way a run must be the one the items give.

The property test draws programs from the instruction kinds of
``tests/sim/test_reference_equivalence.py``, with a larger share of
bursts, or builds a lone CBS process whose bursts end exactly on its
budget edge, and runs each one twice on :class:`repro.sim.kernel.Kernel`:
once yielding ``Burst``s, once yielding their items one by one.  Both
runs must leave the same switch log, the same scheduler log with every
``charge`` call kept apart, the same toggling-tracer and probe logs, the
same clock, ``KernelStats`` and per-process accounting and latency
moments, and the same values at every yield that is not a burst; a burst
receives the value the items' side receives after its last item.  The
deterministic tests below pin the one-step rule's three conditions, its
CPU total and the other readers of a burst: ``state_digest``, the
multicore kernel and ``WorkloadFaults`` (in ``tests/faults``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import CbsScheduler, FixedPriorityScheduler, RoundRobinScheduler
from repro.sched.cbs import ServerParams
from repro.sched.gedf import GlobalEdfScheduler
from repro.sim import (
    Burst,
    Compute,
    Kernel,
    KernelConfig,
    MS,
    SleepFor,
    Syscall,
    SyscallNr,
    US,
    WaitEvent,
)
from repro.sim.cycles import ProgramCycleInfo, register_cycle_adapter, state_digest
from repro.sim.instructions import Fire, Label
from repro.sim.multicore import MultiCoreKernel
from tests.sim.test_reference_equivalence import (
    _build,
    _burst_item,
    _drive,
    _LoggingQTracer,
    _outcome,
    burst_items,
    op,
    scenarios,
)

NO_SWITCH_COST = KernelConfig(context_switch_cost=0)

#: about half the drawn instructions are bursts
burst_heavy = st.one_of(op, st.tuples(st.just(11), burst_items))


def _run(sc: dict, bursts: bool) -> dict:
    kernel, procs, seen, log = _build(Kernel, sc, bursts=bursts, merge=False)
    clocks = _drive(kernel, sc)
    return _outcome(kernel, procs, seen, log, clocks)


def assert_burst_is_its_items(sc: dict) -> None:
    items = _run(sc, bursts=False)
    bursts = _run(sc, bursts=True)
    for key in items:
        assert bursts[key] == items[key], key


@st.composite
def budget_edges(draw) -> dict:
    """A lone CBS process whose bursts use up its budget exactly, then
    make a call.  The exhaustion hook attaches a tracer that traces the
    call, which must see it as it does when the items come one by one.
    Random programs rarely end a burst on a budget edge, so these draws
    build one: a last burst of whole 10 µs ``Compute``s and an IOCTL of
    the ns left."""
    bursts = draw(st.lists(burst_items, min_size=1, max_size=3))
    cpu = sum(Burst([_burst_item(*item) for item in items]).cpu for items in bursts)
    budget_ms = draw(st.integers(cpu // MS + 1, cpu // MS + 4))
    rest = budget_ms * MS - cpu
    last = ((0, rest // (10 * US)),) + (((2, rest % (10 * US)),) if rest % (10 * US) else ())
    ops = [(11, items) for items in bursts] + [(11, last), (1, draw(st.integers(0, 20)))]
    return {
        "sched": draw(st.sampled_from(["cbs-hard", "cbs-soft", "cbs-background"])),
        "procs": [(ops, draw(st.integers(1, 3)), 0)],
        "servers": [(budget_ms, draw(st.integers(max(6, budget_ms), 20)))],
        "cs_cost": draw(st.sampled_from([0, 2_000])),
        "tracer": None,
        "slice_us": 50,
        "horizon_ms": draw(st.integers(budget_ms + 1, 40)),
        "cuts": draw(st.lists(st.integers(1, 39_999), max_size=3)),
        "schedule": draw(st.sampled_from(["single", "chunked", "stop_before_switch"])),
    }


@settings(max_examples=150, deadline=None)
@given(sc=scenarios(burst_heavy) | budget_edges())
def test_bursts_match_their_items_one_by_one(sc):
    assert_burst_is_its_items(sc)


# ---------------------------------------------------------------------------
# the instruction
# ---------------------------------------------------------------------------


class TestBuilding:
    def test_totals_floor_each_call_at_one_ns(self):
        burst = Burst(
            [
                Compute(40 * US),
                Syscall(SyscallNr.WRITE, cost=0),
                Compute(0),
                Syscall(SyscallNr.IOCTL, cost=3 * US),
            ]
        )
        assert burst.cpu == 40 * US + 1 + 3 * US
        assert burst.calls == 2
        assert len(burst.items) == 4

    def test_default_costs_count(self):
        call = Syscall(SyscallNr.IOCTL)
        assert Burst([call, call]).cpu == 2 * max(call.cost, 1)

    def test_empty_is_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            Burst([])

    @pytest.mark.parametrize(
        "item",
        [
            Syscall(SyscallNr.FUTEX, block=WaitEvent("k")),
            Syscall(SyscallNr.NANOSLEEP, block=SleepFor(1 * MS)),
            Fire("k"),
            Label("l"),
            Burst([Compute(1)]),
            40,
        ],
    )
    def test_other_items_are_type_errors(self, item):
        with pytest.raises(TypeError, match="non-blocking Syscall"):
            Burst([Compute(1), item])

    def test_immutable(self):
        burst = Burst([Compute(1)])
        with pytest.raises(AttributeError):
            burst.cpu = 5
        with pytest.raises(AttributeError):
            del burst.items
        assert burst.cpu == 1


# ---------------------------------------------------------------------------
# one step or one item at a time
# ---------------------------------------------------------------------------


class _CountingList(list):
    """A ``Process.burst_rest`` that counts the bursts run item by item."""

    expanded = 0

    def extend(self, items) -> None:
        type(self).expanded += 1
        super().extend(items)


def _pair(build, until=5 * MS, sched=RoundRobinScheduler):
    """Run ``build(kernel, seen, bursts)`` with bursts and with their
    items one by one, each next to a process that keeps the first
    process's picks bounded; return both outcomes and the number of
    bursts the bursts' side ran item by item."""
    out = []
    expanded = 0
    for bursts in (True, False):
        _CountingList.expanded = 0
        kernel = Kernel(sched(), NO_SWITCH_COST)
        seen: list = []
        extra = build(kernel, seen, bursts)
        kernel.spawn("other", _program([Compute(2 * MS)], []))
        for proc in kernel.processes.values():
            proc.burst_rest = _CountingList()
        kernel.run(until)
        procs = sorted(kernel.processes.values(), key=lambda p: p.pid)
        out.append(
            {
                "clock": kernel.clock,
                "procs": [(p.cpu_time, p.syscall_count, p.state.value) for p in procs],
                "seen": seen,
                "extra": extra,
                "stats": vars(kernel.stats).copy(),
            }
        )
        if bursts:
            expanded = _CountingList.expanded
    return out[0], out[1], expanded


def _items_or_burst(items, bursts):
    """``Burst(items)``, or the list ``items``, which ``_program`` yields
    one by one."""
    return Burst(items) if bursts else items


def _program(instrs, seen):
    """Yield each instruction of ``instrs``; a list is a burst's items,
    yielded one by one, and ``seen`` logs the value after the last."""

    def body():
        for instr in instrs:
            if isinstance(instr, list):
                for item in instr:
                    now = yield item
            else:
                now = yield instr
            seen.append(now)

    return body()


class TestOneStep:
    def test_a_burst_before_the_limit_takes_one_step(self):
        items = [Compute(40 * US), Syscall(SyscallNr.IOCTL, cost=0)] * 3
        cpu = 120 * US + 3

        def build(kernel, seen, bursts):
            work = [Compute(100 * US)] + [_items_or_burst(items, bursts)] * 5
            kernel.spawn("a", _program(work, seen))

        with_bursts, one_by_one, expanded = _pair(build)
        assert with_bursts == one_by_one
        assert expanded == 0
        assert with_bursts["seen"][1:3] == [100 * US + cpu, 100 * US + 2 * cpu]
        assert with_bursts["procs"][0] == (100 * US + 5 * cpu, 15, "exited")

    def test_a_zero_cost_call_takes_one_ns(self):
        items = [Syscall(SyscallNr.IOCTL, cost=0)] * 4

        def build(kernel, seen, bursts):
            kernel.spawn("a", _program([Compute(100 * US), _items_or_burst(items, bursts)], seen))

        with_bursts, one_by_one, expanded = _pair(build)
        assert with_bursts == one_by_one
        assert expanded == 0
        assert with_bursts["seen"] == [100 * US, 100 * US + 4]

    def test_a_calendar_event_inside_runs_the_items_one_at_a_time(self):
        items = [Compute(40 * US), Syscall(SyscallNr.IOCTL, cost=1 * US)] * 3

        def build(kernel, seen, bursts):
            fired = []
            work = [Compute(100 * US)] + [_items_or_burst(items, bursts)] * 4
            kernel.spawn("a", _program(work, seen))
            kernel.at(300 * US, lambda now: fired.append(now))
            return fired

        with_bursts, one_by_one, expanded = _pair(build)
        assert with_bursts == one_by_one
        assert expanded == 1

    def test_a_burst_ending_at_the_limit_runs_its_items(self):
        # the budget runs out exactly as the burst ends, and the hook
        # that ``charge`` calls starts tracing the process: the call
        # after the burst must see the tracer, as it does when the items
        # come one by one (the bound is settled before the next fetch)
        items = [Compute(400 * US), Syscall(SyscallNr.WRITE, cost=100 * US)]

        def build(kernel, seen, bursts):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            kernel.add_tracer(tracer)
            cbs = kernel.scheduler
            server = cbs.create_server(ServerParams(1 * MS, 10 * MS, "hard"), "one")
            server.exhaustion_hook = lambda srv, now: tracer.trace_pid(me.pid)
            work = [Compute(500 * US), _items_or_burst(items, bursts), Syscall(SyscallNr.WRITE)]
            me = kernel.spawn("runner", _program(work, seen))
            cbs.attach(me, server)
            return calls

        with_bursts, one_by_one, expanded = _pair(build, sched=CbsScheduler)
        assert with_bursts == one_by_one
        assert expanded == 1
        # the burst's call returns traced; the exit hook's cost then waits
        # for the throttled server's next period
        calls = with_bursts["extra"]
        assert [(c[0], c[3]) for c in calls] == [("exit", 1 * MS)]

    def test_a_traced_burst_calls_the_hooks(self):
        items = [Compute(40 * US), Syscall(SyscallNr.IOCTL, cost=2 * US)] * 2

        def build(kernel, seen, bursts):
            calls: list = []
            tracer = _LoggingQTracer(calls)
            kernel.add_tracer(tracer)
            work = [Compute(100 * US)] + [_items_or_burst(items, bursts)] * 3
            me = kernel.spawn("a", _program(work, seen))
            tracer.trace_pid(me.pid)
            return calls

        with_bursts, one_by_one, expanded = _pair(build)
        assert with_bursts == one_by_one
        assert expanded == 3
        assert [c[0] for c in with_bursts["extra"]] == ["entry", "exit"] * 6


# ---------------------------------------------------------------------------
# the other readers of a burst
# ---------------------------------------------------------------------------


def _mid_burst(items):
    """A fixed-priority kernel stopped inside ``Burst(items)``: with no
    bound, the items run one at a time."""
    kernel = Kernel(FixedPriorityScheduler(), NO_SWITCH_COST)
    burst = Burst(items)

    def body():
        while True:
            yield burst
            yield Syscall(SyscallNr.NANOSLEEP, block=SleepFor(10 * MS))

    program = register_cycle_adapter(body(), ProgramCycleInfo(period=10 * MS))
    proc = kernel.spawn("p", program)
    kernel.run(150 * US)
    return kernel, proc


def test_state_digest_covers_the_burst_position():
    head = [Compute(100 * US), Syscall(SyscallNr.IOCTL), Compute(100 * US)]
    write = Syscall(SyscallNr.WRITE)
    one, p1 = _mid_burst(head + [write])
    same, _ = _mid_burst(head + [write])
    two, p2 = _mid_burst(head + [write, write])
    assert one.clock == two.clock == 150 * US
    assert len(p1.burst_rest) == 1 and len(p2.burst_rest) == 2
    assert state_digest(one, one.clock) == state_digest(same, same.clock)
    # the kernels differ only in the items the process still has to run
    assert state_digest(one, one.clock) != state_digest(two, two.clock)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_multicore_kernel_runs_bursts_one_item_at_a_time(n_cpus):
    items = [Compute(70 * US), Syscall(SyscallNr.WRITE, cost=0), Compute(30 * US)]

    def run(bursts):
        sched = GlobalEdfScheduler()
        kernel = MultiCoreKernel(sched, n_cpus, NO_SWITCH_COST)
        seen: list = []
        procs = []
        for i in range(3):
            work = [Compute((i + 1) * 50 * US)] + [_items_or_burst(items, bursts)] * 6
            work.append(Syscall(SyscallNr.NANOSLEEP, block=SleepFor(300 * US)))
            work += [_items_or_burst(items, bursts)] * 2
            procs.append(kernel.spawn(f"p{i}", _program(work, seen)))
            sched.attach(procs[-1], rel_deadline=(i + 1) * MS)
        kernel.run(5 * MS)
        return kernel.clock, vars(kernel.stats), seen, [
            (p.cpu_time, p.syscall_count, p.exit_time) for p in procs
        ]

    assert run(True) == run(False)
