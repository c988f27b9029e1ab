"""Property-based invariants of the simulation kernel.

Random programs (mixes of compute, non-blocking and sleeping syscalls)
are run under every scheduler; the kernel's global accounting must hold
regardless:

- conservation: Σ per-process CPU time == kernel busy time;
- the clock never exceeds the requested horizon and busy + idle never
  exceeds the elapsed time (context switches account for the rest);
- blocked processes never accumulate CPU;
- two identical runs are bit-identical (determinism).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched import CbsScheduler, EdfScheduler, FixedPriorityScheduler, RoundRobinScheduler, StrideScheduler
from repro.sim import Compute, Kernel, KernelConfig, MS, SEC, SleepFor, Syscall, SyscallNr

# a compact encoding for random program segments:
#   (kind, magnitude) with kind 0 = compute, 1 = syscall, 2 = sleep
segment = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=20))
program_spec = st.lists(segment, min_size=1, max_size=12)


def build_program(spec):
    def prog():
        for kind, mag in spec:
            if kind == 0:
                yield Compute(mag * MS)
            elif kind == 1:
                yield Syscall(SyscallNr.WRITE)
            else:
                yield Syscall(SyscallNr.NANOSLEEP, cost=1000, block=SleepFor(mag * MS))

    return prog()


def make_scheduler(idx):
    return [
        RoundRobinScheduler,
        CbsScheduler,
        EdfScheduler,
        FixedPriorityScheduler,
        StrideScheduler,
    ][idx]()


def attach_all(sched, procs):
    if isinstance(sched, EdfScheduler):
        for i, p in enumerate(procs):
            sched.attach(p, rel_deadline=(i + 1) * 50 * MS)
    elif isinstance(sched, FixedPriorityScheduler):
        for i, p in enumerate(procs):
            sched.attach(p, priority=i)
    elif isinstance(sched, StrideScheduler):
        for i, p in enumerate(procs):
            sched.attach(p, tickets=(i + 1) * 10)
    # CBS / RR: processes run in the default (background) class


class TestKernelInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(program_spec, min_size=1, max_size=4),
        sched_idx=st.integers(min_value=0, max_value=4),
    )
    def test_cpu_time_conservation(self, specs, sched_idx):
        sched = make_scheduler(sched_idx)
        kernel = Kernel(sched, KernelConfig(context_switch_cost=0))
        procs = [kernel.spawn(f"p{i}", build_program(spec)) for i, spec in enumerate(specs)]
        attach_all(sched, procs)
        kernel.run(SEC)

        assert kernel.clock == SEC
        total_cpu = sum(p.cpu_time for p in procs)
        assert total_cpu == kernel.stats.busy_time
        assert kernel.stats.busy_time + kernel.stats.idle_time <= SEC

    @settings(max_examples=15, deadline=None)
    @given(
        specs=st.lists(program_spec, min_size=2, max_size=4),
        sched_idx=st.integers(min_value=0, max_value=4),
        cs_cost=st.sampled_from([0, 1000, 50_000]),
    )
    def test_accounting_with_switch_costs(self, specs, sched_idx, cs_cost):
        sched = make_scheduler(sched_idx)
        kernel = Kernel(sched, KernelConfig(context_switch_cost=cs_cost))
        procs = [kernel.spawn(f"p{i}", build_program(spec)) for i, spec in enumerate(specs)]
        attach_all(sched, procs)
        kernel.run(SEC)
        # switch time is the only unaccounted wall time
        slack = kernel.stats.context_switches * cs_cost
        accounted = kernel.stats.busy_time + kernel.stats.idle_time
        assert SEC - slack <= accounted <= SEC

    @settings(max_examples=15, deadline=None)
    @given(specs=st.lists(program_spec, min_size=1, max_size=3))
    def test_determinism(self, specs):
        def run_once():
            kernel = Kernel(RoundRobinScheduler())
            procs = [kernel.spawn(f"p{i}", build_program(spec)) for i, spec in enumerate(specs)]
            kernel.run(SEC)
            return [
                (p.cpu_time, p.syscall_count, p.exit_time) for p in procs
            ] + [kernel.stats.context_switches, kernel.stats.busy_time]

        assert run_once() == run_once()

    @settings(max_examples=15, deadline=None)
    @given(
        specs=st.lists(program_spec, min_size=1, max_size=3),
        horizon_ms=st.integers(min_value=1, max_value=500),
    )
    # a lone process's quanta cut at the horizon: RR used to drop the
    # slice overrun, so p1 ended 13 us apart between the two ways
    @example(specs=[[(0, 1), (0, 20)], [(0, 10), (2, 5)]], horizon_ms=27)
    def test_partial_runs_compose(self, specs, horizon_ms):
        """Running to T in two steps equals running to T in one step."""

        def final_state(step_first):
            kernel = Kernel(RoundRobinScheduler())
            procs = [kernel.spawn(f"p{i}", build_program(spec)) for i, spec in enumerate(specs)]
            if step_first:
                kernel.run(horizon_ms * MS)
            kernel.run(SEC)
            return [(p.cpu_time, p.syscall_count, p.exit_time) for p in procs]

        assert final_state(True) == final_state(False)
