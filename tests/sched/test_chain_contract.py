"""The scheduler contract the kernel's segment chaining relies on.

:meth:`repro.sim.kernel.Kernel.run` keeps running a picked process
through consecutive segments without asking the scheduler again, as long
as the integer bound ``b`` returned at the pick has not run out.  That is
only sound if, for the picked process and any ``0 < d < b``, after
``charge(proc, d, now + d)`` and with no ``on_ready``/``on_block``/
``on_exit`` or calendar event in between,

- ``pick(now + d)`` returns the same process,
- ``time_until_internal_event(proc, now + d)`` returns ``b - d``, and
- neither call changes the policy's state, since the kernel skips both.

A chain also charges its CPU in one call where scheduler state is read
(:meth:`repro.sim.kernel.Kernel._settle`), not once per segment.  That
rests on the composition clause: for ``0 < d1`` with ``d1 + d2 <= b``,
``charge(d1)`` then ``charge(d2)`` leaves the same policy state as
``charge(d1 + d2)``, with the same counters, exhaustion hook calls and
calendar pushes.

Following Ekiben (arXiv:2306.15076), the contract is checked here on
each bounded policy in isolation, with no kernel loop in the way: a real
kernel only drives a random prefix to reach a realistic state (throttled
and multi-member CBS servers, background processes, rotated run queues),
then the test calls the scheduler directly.  FP and EDF never return a
bound, so the kernel never chains under them.
"""

from collections import deque

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.sched import CbsScheduler, RoundRobinScheduler, ServerParams, StrideScheduler
from repro.sched.cbs import Server
from repro.sim import Compute, Kernel, KernelConfig, MS, SleepFor, Syscall, SyscallNr, US
from repro.sim.process import Process

POLICIES = ("cbs-hard", "cbs-soft", "cbs-background", "rr", "stride")


def _program(spec):
    def prog():
        while True:
            for compute_us, sleep_us in spec:
                yield Compute(compute_us * US)
                if sleep_us:
                    yield Syscall(SyscallNr.NANOSLEEP, cost=2 * US, block=SleepFor(sleep_us * US))

    return prog()


state = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(POLICIES),
        "procs": st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=1, max_value=3_000),
                        st.integers(min_value=0, max_value=4_000),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(min_value=0, max_value=3),  # server slot; past the end = background
            ),
            min_size=2,
            max_size=5,
        ),
        "servers": st.lists(
            st.tuples(st.integers(1, 5), st.integers(5, 20)),  # budget, period (ms)
            min_size=1,
            max_size=3,
        ),
        "slice_us": st.integers(min_value=100, max_value=5_000),
        "prefix_us": st.integers(min_value=0, max_value=60_000),
        "pieces": st.lists(st.integers(min_value=1, max_value=1_000), min_size=1, max_size=6),
        "to_bound": st.booleans(),
    }
)


def _reach(sc):
    """A scheduler in the state a real run leaves it at ``prefix_us``."""
    policy = sc["policy"]
    slice_ns = sc["slice_us"] * US
    if policy == "rr":
        sched = RoundRobinScheduler(timeslice=slice_ns)
    elif policy == "stride":
        sched = StrideScheduler(quantum=slice_ns)
    else:
        sched = CbsScheduler(background_slice=slice_ns, intra_server_slice=slice_ns // 3 + 1)
    kernel = Kernel(sched, KernelConfig(context_switch_cost=1_000))
    servers = []
    if policy.startswith("cbs"):
        kind = policy.split("-")[1]
        for budget_ms, period_ms in sc["servers"]:
            servers.append(sched.create_server(ServerParams(budget_ms * MS, period_ms * MS, kind)))
    for i, (spec, slot) in enumerate(sc["procs"]):
        proc = kernel.spawn(f"p{i}", _program(spec))
        if slot < len(servers):
            sched.attach(proc, servers[slot])
        elif policy == "stride":
            sched.attach(proc, tickets=(slot + 1) * 7)
    kernel.run(sc["prefix_us"] * US)
    # the kernel's next step would dispatch what is due, then pick
    kernel._dispatch_due()
    return sched, kernel.clock


@settings(max_examples=300, deadline=None)
@given(sc=state)
def test_bounded_pick_survives_charges_below_the_bound(sc):
    sched, now = _reach(sc)
    proc = sched.pick(now)
    assume(proc is not None)
    bound = sched.time_until_internal_event(proc, now)
    assume(bound is not None and bound > 1)
    # split part of the bound into the pieces the kernel's chain charges
    total = sum(sc["pieces"])
    run = 0
    for piece in sc["pieces"]:
        d = max(piece * (bound - 1) // total, 1)
        if run + d >= bound:
            break
        run += d
        now += d
        sched.charge(proc, d, now)
        state = sched.cycle_state(now)
        assert sched.pick(now) is proc
        assert sched.time_until_internal_event(proc, now) == bound - run
        assert sched.cycle_state(now) == state


def _plain(value):
    """``value`` comparable across two schedulers: processes as pids,
    servers as their state, containers as tuples."""
    if isinstance(value, Process):
        return value.pid
    if isinstance(value, Server):
        return (
            value.sid,
            value.q,
            value.deadline,
            value.throttled,
            _plain(value.ready),
            value.slice_left,
            value.consumed,
            value.exhaustions,
        )
    if isinstance(value, (list, tuple, deque)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _plain(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(value))
    return value


def _observe(sched):
    """Log every exhaustion hook call of ``sched``'s servers."""
    calls: list = []
    for server in getattr(sched, "servers", {}).values():
        server.exhaustion_hook = lambda srv, now: calls.append((srv.sid, now))
    return calls


def _after(sched, calls):
    """Everything a charge can leave behind: every policy field, the hook
    calls and the kernel calendar (with the push order)."""
    policy = {k: _plain(v) for k, v in vars(sched).items() if k != "kernel"}
    calendar = [
        (ev.time, ev.seq, ev.callback.__name__, _plain(ev.payload))
        for ev in sched.kernel.events.snapshot()
    ]
    return policy, list(calls), calendar


#: a throttled background-policy server: both members run, and are
#: charged, in the best-effort class until the replenishment
THROTTLED = {
    "policy": "cbs-background",
    "procs": [([(1, 0)], 0), ([(1, 0)], 0)],
    "servers": [(1, 5)],
    "slice_us": 100,
    "prefix_us": 1030,
    "pieces": [1, 2, 3],
    "to_bound": True,
}


@settings(max_examples=300, deadline=None)
@given(sc=state)
@example(sc=THROTTLED)
@example(sc={**THROTTLED, "to_bound": False})
def test_charges_below_the_bound_compose(sc):
    split, now = _reach(sc)
    merged, _ = _reach(sc)
    split_calls, merged_calls = _observe(split), _observe(merged)
    proc = split.pick(now)
    assume(proc is not None)
    bound = split.time_until_internal_event(proc, now)
    assume(bound is not None)
    twin = merged.pick(now)
    assert twin.pid == proc.pid
    assert merged.time_until_internal_event(twin, now) == bound
    # the chain runs ``total`` ns, up to the whole bound, cut into the
    # pieces a kernel would settle at
    total = bound if sc["to_bound"] else max(bound * sc["pieces"][0] // 1_001, 1)
    weights = sum(sc["pieces"])
    run = cut = 0
    for piece in sc["pieces"]:
        cut += piece
        d = total * cut // weights - run
        if d:
            run += d
            split.charge(proc, d, now + run)
    assert run == total
    merged.charge(twin, total, now + total)
    assert _after(split, split_calls) == _after(merged, merged_calls)

