"""Tests for the synthetic periodic load generator."""

import math

import numpy as np
import pytest

from repro.sched import RoundRobinScheduler
from repro.sim import Kernel, KernelConfig, MS, SEC, US
from repro.workloads import PeriodicTaskConfig, periodic_task
from repro.workloads.periodic import load_set


class TestConfig:
    def test_utilisation(self):
        assert PeriodicTaskConfig(cost=2 * MS, period=10 * MS).utilisation == 0.2

    @pytest.mark.parametrize("cost,period", [(0, 10), (10, 0), (11, 10)])
    def test_invalid(self, cost, period):
        with pytest.raises(ValueError):
            PeriodicTaskConfig(cost=cost, period=period)

    @pytest.mark.parametrize("jitter", [-0.1, math.inf, math.nan])
    def test_invalid_cost_jitter(self, jitter):
        # numpy's ``normal`` raised on a negative scale only mid-run; the
        # per-job draw is now plain arithmetic, so the config must refuse
        with pytest.raises(ValueError, match="cost_jitter"):
            PeriodicTaskConfig(cost=2 * MS, period=10 * MS, cost_jitter=jitter)


class TestExecution:
    def test_cpu_share_matches_utilisation(self):
        cfg = PeriodicTaskConfig(cost=2 * MS, period=10 * MS)
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        p = kernel.spawn("rt", periodic_task(cfg))
        kernel.run(SEC)
        assert abs(p.cpu_time - 200 * MS) < 10 * MS

    def test_finite_jobs(self):
        cfg = PeriodicTaskConfig(cost=1 * MS, period=10 * MS)
        kernel = Kernel(RoundRobinScheduler())
        p = kernel.spawn("rt", periodic_task(cfg, n_jobs=5))
        kernel.run(SEC)
        assert not p.alive
        assert 5 * MS <= p.cpu_time <= 6 * MS

    def test_phase_shifts_releases(self):
        cfg = PeriodicTaskConfig(cost=1 * MS, period=10 * MS, phase=5 * MS)
        kernel = Kernel(RoundRobinScheduler())
        p = kernel.spawn("rt", periodic_task(cfg, n_jobs=1))
        kernel.run(SEC)
        assert p.exit_time >= 6 * MS

    def test_extra_syscalls_visible(self):
        cfg = PeriodicTaskConfig(cost=1 * MS, period=10 * MS, extra_syscalls=4)
        kernel = Kernel(RoundRobinScheduler())
        p = kernel.spawn("rt", periodic_task(cfg, n_jobs=3))
        kernel.run(SEC)
        # per job: 1 nanosleep + 4 clock_gettime
        assert p.syscall_count == 3 * 5


class TestLoadSet:
    def test_total_utilisation(self):
        configs = load_set(0.5, n_tasks=3)
        total = sum(c.utilisation for c in configs)
        assert total == pytest.approx(0.5, abs=0.02)

    def test_distinct_periods(self):
        configs = load_set(0.4, n_tasks=4)
        assert len({c.period for c in configs}) == 4

    @pytest.mark.parametrize("util", [0.0, 1.0, -0.5])
    def test_invalid_utilisation(self, util):
        with pytest.raises(ValueError):
            load_set(util)

    def test_invalid_n_tasks(self):
        with pytest.raises(ValueError):
            load_set(0.3, n_tasks=0)


#: (loc, scale) of every per-job normal draw in the workloads' defaults:
#: audio decode and release jitter, video I/P/B decode, vlc decode, the
#: jittered periodic tasks of the golden scenarios and of the fleets
NORMAL_DRAWS = [
    (2 * MS, 0.15 * 2 * MS),
    (0, 200 * US),
    (15 * MS, 0.08 * 15 * MS),
    (11 * MS, 0.08 * 11 * MS),
    (9 * MS, 0.08 * 9 * MS),
    (9 * MS, 0.12 * 9 * MS),
    (4 * MS, 0.15 * 4 * MS),
    (50 * US, 0.1 * 50 * US),
]


@pytest.mark.parametrize(("loc", "scale"), NORMAL_DRAWS)
def test_scalar_normal_draw_is_numpys_to_the_bit(loc, scale):
    # 8 x 12,500 = 100,000 draws: ``loc + scale * standard_normal()`` is
    # ``normal(loc, scale)``, variate and double arithmetic alike
    rng, reference = np.random.default_rng(loc + 1), np.random.default_rng(loc + 1)
    for _ in range(12_500):
        drawn = loc + scale * rng.standard_normal()
        assert drawn.hex() == float(reference.normal(loc, scale)).hex()
    assert rng.bit_generator.state == reference.bit_generator.state
