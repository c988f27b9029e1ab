"""``run_until_exit`` event-granular stepping: exit times must not move.

The pre-optimisation implementation advanced the clock in fixed
``hard_limit // 1000`` slices and re-checked liveness between slices;
the current one steps the simulation to the next calendar event and
stops the instant the last watched process exits.  Exit times are a
property of the *simulation*, not of the stepping policy, so both must
agree exactly — this pins that on the Table 1 ffmpeg batch scenario and
a few adversarial shapes.
"""

import pytest

from repro.sched import RoundRobinScheduler
from repro.sim import Kernel, KernelConfig, SEC
from repro.sim.instructions import Compute, SleepFor, Syscall
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS
from repro.workloads import FfmpegConfig, ffmpeg_transcode


def _sliced_run_until_exit(kernel, procs, hard_limit):
    """The pre-optimisation stepping policy, as a reference."""
    step = max(1, hard_limit // 1000)
    while any(p.alive for p in procs) and kernel.clock < hard_limit:
        target = kernel.clock + step
        kernel.run(target if target < hard_limit else hard_limit)
    return max((p.exit_time or kernel.clock) for p in procs)


class TestFfmpegBatch:
    """The Table 1 shape: one transcode run to completion."""

    def test_exit_time_matches_sliced_stepping(self):
        exits = []
        for runner in (Kernel.run_until_exit, _sliced_run_until_exit):
            kernel = Kernel(RoundRobinScheduler())
            proc = kernel.spawn("ffmpeg", ffmpeg_transcode(FfmpegConfig(seed=100)))
            exits.append(runner(kernel, [proc], 120 * SEC))
        assert exits[0] == exits[1]

    def test_returns_at_exit_not_hard_limit(self):
        kernel = Kernel(RoundRobinScheduler())
        proc = kernel.spawn("ffmpeg", ffmpeg_transcode(FfmpegConfig(seed=100)))
        end = kernel.run_until_exit([proc], hard_limit=120 * SEC)
        assert proc.exit_time is not None
        assert end == proc.exit_time
        # the clock must not have been dragged anywhere near the 120 s
        # hard limit once the watched process was gone
        assert kernel.clock < 120 * SEC


class TestSteppingEdgeCases:
    def _spin(self, duration):
        def body():
            yield Compute(duration)

        return body()

    def test_multiple_procs_returns_last_exit(self):
        kernel = Kernel(RoundRobinScheduler())
        a = kernel.spawn("short", self._spin(10 * MS))
        b = kernel.spawn("long", self._spin(50 * MS))
        end = kernel.run_until_exit([a, b], hard_limit=SEC)
        assert end == max(a.exit_time, b.exit_time)
        assert a.exit_time is not None and b.exit_time is not None

    def test_hard_limit_caps_nonterminating_process(self):
        def forever():
            while True:
                yield Compute(1 * MS)
                yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepFor(1 * MS))

        kernel = Kernel(RoundRobinScheduler())
        proc = kernel.spawn("daemon", forever())
        end = kernel.run_until_exit([proc], hard_limit=100 * MS)
        assert proc.alive
        assert end == kernel.clock == 100 * MS

    def test_already_exited_proc_returns_immediately(self):
        kernel = Kernel(RoundRobinScheduler())
        proc = kernel.spawn("quick", self._spin(5 * MS))
        kernel.run(SEC)
        assert not proc.alive
        clock_before = kernel.clock
        end = kernel.run_until_exit([proc], hard_limit=10 * SEC)
        assert end == proc.exit_time
        assert kernel.clock == clock_before

    def test_exit_at_time_zero_counts_as_an_exit(self):
        # an exit time of 0 must not read as "never exited" (the clock)
        def instant():
            yield from ()

        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        proc = kernel.spawn("instant", instant())
        kernel.run(10 * MS)
        assert proc.exit_time == 0
        assert kernel.run_until_exit([proc], hard_limit=20 * MS) == 0
        assert kernel.clock == 10 * MS

    def test_no_procs_returns_the_clock(self):
        # nothing to wait for: no run, and the clock, not a ValueError
        kernel = Kernel(RoundRobinScheduler())
        kernel.run(3 * MS)
        assert kernel.run_until_exit([], SEC) == 3 * MS
        assert kernel.clock == 3 * MS

    def test_unwatched_procs_keep_running(self):
        # the watch set must only gate the *return*, not starve others
        kernel = Kernel(RoundRobinScheduler())
        watched = kernel.spawn("watched", self._spin(20 * MS))
        other = kernel.spawn("other", self._spin(15 * MS))
        kernel.run_until_exit([watched], hard_limit=SEC)
        assert not watched.alive
        # the bystander got scheduled alongside (RR interleaves them)
        assert other.cpu_time > 0

    def test_mixed_alive_and_exited(self):
        kernel = Kernel(RoundRobinScheduler())
        early = kernel.spawn("early", self._spin(5 * MS))
        kernel.run(100 * MS)
        late = kernel.spawn("late", self._spin(30 * MS), at=kernel.clock + 10 * MS)
        end = kernel.run_until_exit([early, late], hard_limit=SEC)
        assert end == late.exit_time
        assert late.exit_time > early.exit_time

    def test_sliced_reference_agrees_on_sleepy_mix(self):
        def sleepy(n, cost, gap):
            def body():
                for _ in range(n):
                    yield Compute(cost)
                    yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepFor(gap))

            return body()

        exits = []
        for runner in (Kernel.run_until_exit, _sliced_run_until_exit):
            kernel = Kernel(RoundRobinScheduler())
            a = kernel.spawn("a", sleepy(40, 2 * MS, 7 * MS))
            b = kernel.spawn("b", sleepy(25, 3 * MS, 11 * MS))
            exits.append(runner(kernel, [a, b], 10 * SEC))
        assert exits[0] == exits[1]


@pytest.mark.parametrize("hard_limit", [100 * MS, SEC, 10 * SEC])
def test_return_value_never_exceeds_hard_limit(hard_limit):
    def forever():
        while True:
            yield Compute(1 * MS)

    kernel = Kernel(RoundRobinScheduler())
    proc = kernel.spawn("spin", forever())
    end = kernel.run_until_exit([proc], hard_limit=hard_limit)
    assert end <= hard_limit
