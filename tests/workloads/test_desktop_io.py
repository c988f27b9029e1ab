"""Tests for the desktop-load and disk-I/O workload models."""

import math

import pytest

from repro.sched import RoundRobinScheduler
from repro.sim import Compute, Kernel, KernelConfig, MS, SEC
from repro.workloads.desktop import DesktopLoadConfig, desktop_load, desktop_suite
from repro.workloads.io import Disk, DiskConfig


class TestDesktopLoad:
    def test_duty_cycle_approximated(self):
        cfg = DesktopLoadConfig(duty=0.2, chunk=2 * MS, burst_sigma=0.3, seed=1)
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        p = kernel.spawn("x", desktop_load(cfg))
        kernel.run(5 * SEC)
        assert abs(p.cpu_time / (5 * SEC) - 0.2) < 0.06

    def test_heavy_tail_produces_long_bursts(self):
        cfg = DesktopLoadConfig(duty=0.15, chunk=3 * MS, burst_sigma=1.5, seed=2)
        # sample the generator's burst lengths directly
        import numpy as np

        rng = np.random.default_rng(2)
        bursts = [cfg.chunk * rng.lognormal(0, cfg.burst_sigma) for _ in range(500)]
        assert max(bursts) > 10 * cfg.chunk

    @pytest.mark.parametrize("kwargs", [{"duty": 0.0}, {"duty": 1.0}, {"chunk": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DesktopLoadConfig(**kwargs)

    @pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
    def test_invalid_burst_sigma(self, sigma):
        # a negative sigma used to raise ``ValueError('sigma < 0')`` at the
        # first burst, and nan was accepted
        with pytest.raises(ValueError, match="burst_sigma"):
            DesktopLoadConfig(burst_sigma=sigma)

    def test_suite_composition(self):
        suite = desktop_suite()
        assert len(suite) == 4
        assert sum(c.duty for c in suite) == pytest.approx(0.2, abs=0.01)


class TestDisk:
    @pytest.mark.parametrize("jitter", [-0.4, math.inf, math.nan])
    def test_invalid_jitter(self, jitter):
        # a negative spread used to kill the kblockd daemon at its first
        # request, leaving every reader blocked on the disk for good
        with pytest.raises(ValueError, match="jitter"):
            DiskConfig(jitter=jitter)

    def test_request_completion(self):
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        disk = Disk(kernel, DiskConfig(service_cost=4 * MS, jitter=0.0))
        done = []

        def reader():
            t = yield disk.read_instruction()
            done.append(t)

        kernel.spawn("reader", reader())
        kernel.run(SEC)
        assert done
        assert done[0] >= 4 * MS
        assert disk.completed == 1

    def test_fifo_service_order(self):
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        disk = Disk(kernel, DiskConfig(service_cost=4 * MS, jitter=0.0))
        done = []

        def reader(name):
            t = yield disk.read_instruction()
            done.append((name, t))

        kernel.spawn("a", reader("a"))
        kernel.spawn("b", reader("b"))
        kernel.run(SEC)
        assert [n for n, _ in done] == ["a", "b"]
        assert done[1][1] > done[0][1]

    def test_latency_grows_under_contention(self):
        def one(busy):
            kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
            disk = Disk(kernel, DiskConfig(service_cost=4 * MS, jitter=0.0))
            done = []

            def reader():
                t0 = yield Compute(0)
                t = yield disk.read_instruction()
                done.append(t - t0)

            kernel.spawn("reader", reader())
            if busy:
                def hog():
                    while True:
                        yield Compute(10 * MS)

                kernel.spawn("hog1", hog())
                kernel.spawn("hog2", hog())
            kernel.run(SEC)
            return done[0]

        assert one(busy=True) > one(busy=False)

    def test_daemon_sleeps_when_idle(self):
        kernel = Kernel(RoundRobinScheduler())
        disk = Disk(kernel)
        kernel.run(SEC)
        assert disk.daemon.cpu_time < 1 * MS
