"""Tests for the classical schedulability results."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Task,
    edf_schedulable_utilisation,
    liu_layland_bound,
    rm_response_time,
    rm_response_times,
    rm_schedulable_by_bound,
    rm_schedulable_exact,
)
from repro.sched import FixedPriorityScheduler, rate_monotonic_priorities
from repro.sim import Compute, Kernel, KernelConfig, MS, SEC, SleepUntil, Syscall, SyscallNr


class TestLiuLayland:
    def test_known_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284, abs=1e-4)
        assert liu_layland_bound(3) == pytest.approx(0.7798, abs=1e-4)

    def test_limit_is_ln2(self):
        import math

        assert liu_layland_bound(10_000) == pytest.approx(math.log(2), abs=1e-4)

    def test_monotone_decreasing(self):
        values = [liu_layland_bound(n) for n in range(1, 20)]
        assert all(a > b for a, b in zip(values, values[1:], strict=False))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            liu_layland_bound(0)

    def test_bound_check(self):
        assert rm_schedulable_by_bound([Task(1, 4), Task(1, 5)])
        assert not rm_schedulable_by_bound([Task(2, 4), Task(2, 5)])
        assert rm_schedulable_by_bound([])


class TestResponseTime:
    # the textbook example: C=(1,2,3), P=(4,6,10)
    TASKS = [Task(1, 4), Task(2, 6), Task(3, 10)]

    def test_highest_priority_response_is_cost(self):
        assert rm_response_time(0, self.TASKS) == 1

    def test_textbook_values(self):
        # R2 = 2 + ceil(R2/4)*1 -> 3; R3 = 3 + ceil(R/4) + ceil(R/6)*2 -> 10
        assert rm_response_time(1, self.TASKS) == 3
        assert rm_response_time(2, self.TASKS) == 10

    def test_unschedulable_returns_none(self):
        tasks = [Task(4, 8), Task(5, 12)]
        assert rm_response_time(1, tasks) is None
        assert not rm_schedulable_exact(tasks)

    def test_all_response_times(self):
        assert rm_response_times(self.TASKS) == [1, 3, 10]

    def test_exact_beats_the_bound(self):
        """A set above the Liu-Layland bound can still be schedulable."""
        tasks = [Task(2, 4), Task(3, 8)]  # U = 0.875 > 0.828
        assert not rm_schedulable_by_bound(tasks)
        assert rm_schedulable_exact(tasks)

    @settings(max_examples=20, deadline=None)
    @given(
        c1=st.integers(min_value=1, max_value=10),
        c2=st.integers(min_value=1, max_value=10),
        p1=st.integers(min_value=11, max_value=40),
        p2=st.integers(min_value=41, max_value=100),
    )
    def test_response_times_validated_by_simulation(self, c1, c2, p1, p2):
        """The analytical response time matches the worst response observed
        under synchronous release in the simulator."""
        tasks = [Task(c1, p1), Task(c2, p2)]
        analytical = rm_response_times(tasks)
        if analytical[1] is None:
            return  # unschedulable sets are exercised elsewhere

        sched = FixedPriorityScheduler()
        kernel = Kernel(sched, KernelConfig(context_switch_cost=0))
        prios = rate_monotonic_priorities([t.period for t in tasks])
        observed = [[], []]

        def prog(idx, task):
            def body():
                # every task releases through five periods of the
                # lower-priority one: a higher-priority task that stopped
                # earlier would cut the busy period's interference short
                for j in range(-(-5 * tasks[1].period // task.period)):
                    yield Syscall(
                        SyscallNr.CLOCK_NANOSLEEP, cost=0, block=SleepUntil(j * task.period * MS)
                    )
                    t = yield Compute(task.cost * MS)
                    observed[idx].append(t - j * task.period * MS)

            return body()

        for i, task in enumerate(tasks):
            p = kernel.spawn(f"t{i}", prog(i, task))
            sched.attach(p, priority=prios[i])
        kernel.run(3 * SEC)
        worst = max(observed[1]) / MS
        # the analytical value bounds the observed one up to a boundary
        # effect: sub-ms syscall costs can push a completion that grazes a
        # higher-priority release just past it, adding one interference
        # quantum the idealised analysis does not count
        assert worst <= analytical[1] + tasks[0].cost + 0.1
        assert worst >= analytical[1] - tasks[0].cost - 0.1


class TestEdfUtilisation:
    def test_feasible(self):
        assert edf_schedulable_utilisation([Task(2, 10), Task(4, 5)])

    def test_infeasible(self):
        assert not edf_schedulable_utilisation([Task(6, 10), Task(5, 10)])

    def test_constrained_deadline_rejected(self):
        with pytest.raises(ValueError):
            edf_schedulable_utilisation([Task(1, 10, deadline=5)])
