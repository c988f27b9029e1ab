"""Tests for the ffmpeg transcode model."""

import math

import pytest

from repro.sched import RoundRobinScheduler
from repro.sim import Kernel, KernelConfig, MS, SEC
from repro.workloads import FfmpegConfig, ffmpeg_transcode


class TestConfig:
    def test_nominal_cpu(self):
        cfg = FfmpegConfig(n_frames=100, frame_cost=3 * MS)
        assert cfg.nominal_cpu == 300 * MS

    @pytest.mark.parametrize("kwargs", [{"n_frames": 0}, {"frame_cost": 0}, {"calls_per_frame": -1}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FfmpegConfig(**kwargs)

    @pytest.mark.parametrize("jitter", [-0.05, math.inf, math.nan])
    def test_invalid_cost_jitter(self, jitter):
        # a negative spread used to kill the transcode at its first frame
        # with numpy's ``ValueError('scale < 0')``
        with pytest.raises(ValueError, match="cost_jitter"):
            FfmpegConfig(n_frames=5, cost_jitter=jitter)


class TestRun:
    def test_wall_time_matches_demand_when_idle(self):
        cfg = FfmpegConfig(n_frames=200, cost_jitter=0.0)
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        proc = kernel.spawn("ffmpeg", ffmpeg_transcode(cfg))
        end = kernel.run_until_exit([proc], hard_limit=10 * SEC)
        # compute plus per-call kernel costs: within 2% of nominal
        assert cfg.nominal_cpu <= end <= cfg.nominal_cpu * 1.02

    def test_syscall_count(self):
        cfg = FfmpegConfig(n_frames=50)
        kernel = Kernel(RoundRobinScheduler())
        proc = kernel.spawn("ffmpeg", ffmpeg_transcode(cfg))
        kernel.run_until_exit([proc], hard_limit=10 * SEC)
        assert proc.syscall_count == 50 * cfg.calls_per_frame

    def test_deterministic(self):
        def run(seed):
            kernel = Kernel(RoundRobinScheduler())
            proc = kernel.spawn("f", ffmpeg_transcode(FfmpegConfig(n_frames=50, seed=seed)))
            return kernel.run_until_exit([proc], hard_limit=10 * SEC)

        assert run(1) == run(1)
        assert run(1) != run(2)
