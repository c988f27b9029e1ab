"""Tests for the round-robin best-effort scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sched import RoundRobinScheduler
from repro.sim import Compute, Kernel, KernelConfig, MS, SEC, SleepFor, Syscall, SyscallNr


def make(timeslice=4 * MS):
    sched = RoundRobinScheduler(timeslice=timeslice)
    kernel = Kernel(sched, KernelConfig(context_switch_cost=0))
    return sched, kernel


def hog():
    while True:
        yield Compute(10 * MS)


class TestRoundRobin:
    def test_fair_split_between_hogs(self):
        sched, kernel = make()
        a = kernel.spawn("a", hog())
        b = kernel.spawn("b", hog())
        kernel.run(SEC)
        assert abs(a.cpu_time - b.cpu_time) <= 5 * MS

    def test_three_way_split(self):
        sched, kernel = make()
        procs = [kernel.spawn(f"p{i}", hog()) for i in range(3)]
        kernel.run(SEC)
        for p in procs:
            assert abs(p.cpu_time - SEC // 3) <= 10 * MS

    def test_sleeper_gets_cpu_quickly(self):
        sched, kernel = make()
        kernel.spawn("hog", hog())
        delays = []

        def sleeper():
            for j in range(10):
                t0 = (j + 1) * 50 * MS
                t = yield Syscall(SyscallNr.NANOSLEEP, cost=100, block=SleepFor(50 * MS))
                t = yield Compute(1 * MS)
                delays.append(t)

        kernel.spawn("sleeper", sleeper())
        kernel.run(SEC)
        assert delays  # it does make progress against the hog

    def test_invalid_timeslice(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(timeslice=0)

    def test_single_process_no_slicing_overhead(self):
        sched, kernel = make()
        p = kernel.spawn("only", hog())
        kernel.run(100 * MS)
        assert p.cpu_time == 100 * MS

    @given(
        timeslice=st.integers(min_value=1, max_value=10_000),
        charges=st.lists(st.integers(min_value=1, max_value=30_000), min_size=1, max_size=8),
    )
    def test_lone_process_slice_remainder_composes(self, timeslice, charges):
        # a lone process's quanta are cut wherever an event or a run's
        # horizon falls, so the overrun past a slice must carry over
        split = RoundRobinScheduler(timeslice=timeslice)
        whole = RoundRobinScheduler(timeslice=timeslice)
        kernel = Kernel(split)
        proc = kernel.spawn("only", hog())
        whole.on_ready(proc, 0)
        for delta in charges:
            split.charge(proc, delta, 0)
        whole.charge(proc, sum(charges), 0)
        assert split.cycle_state(0) == whole.cycle_state(0)
