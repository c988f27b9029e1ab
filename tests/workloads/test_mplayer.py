"""Tests for the mplayer workload models."""

import math

import numpy as np
import pytest

from repro.sched import RoundRobinScheduler
from repro.sim import Kernel, KernelConfig, MS, SEC
from repro.tracer import QTracer
from repro.workloads import AudioPlayer, AudioPlayerConfig, VideoPlayer, VideoPlayerConfig
from repro.workloads.mplayer import AUDIO_PERIOD_NS


def run_traced(player_program, duration=4 * SEC):
    kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
    tracer = QTracer()
    kernel.add_tracer(tracer)
    proc = kernel.spawn("player", player_program)
    tracer.trace_pid(proc.pid)
    kernel.run(duration)
    return kernel, proc, tracer.buffer.drain()


class TestAudioPlayer:
    def test_fundamental_is_32_5_hz(self):
        assert AUDIO_PERIOD_NS == pytest.approx(1e9 / 32.5, abs=1)
        assert AudioPlayerConfig().frequency == pytest.approx(32.5, abs=0.01)

    def test_event_train_is_periodic(self):
        player = AudioPlayer()
        _, proc, events = run_traced(player.program(120))
        times = np.array([e.time for e in events])
        # strong phase concentration at the fundamental
        phases = np.exp(2j * np.pi * times / AUDIO_PERIOD_NS)
        assert abs(phases.mean()) > 0.3

    def test_writes_per_period_structure(self):
        cfg = AudioPlayerConfig(writes_per_period=3)
        player = AudioPlayer(cfg)
        _, proc, events = run_traced(player.program(100))
        times = np.array([e.time for e in events])
        slot = cfg.period // 3
        # events cluster at the slot grid too (the 97.5 Hz family)
        phases = np.exp(2j * np.pi * times / slot)
        assert abs(phases.mean()) > 0.2

    def test_frames_played_counted(self):
        player = AudioPlayer()
        run_traced(player.program(50), duration=3 * SEC)
        assert player.frames_played == 50

    def test_deterministic_given_seed(self):
        def trace(seed):
            player = AudioPlayer(AudioPlayerConfig(seed=seed))
            _, _, events = run_traced(player.program(30), duration=2 * SEC)
            return [e.time for e in events]

        assert trace(4) == trace(4)
        assert trace(4) != trace(5)

    @pytest.mark.parametrize(
        "kwargs", [{"period": 0}, {"decode_cost": -1}, {"writes_per_period": 0}]
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            AudioPlayerConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decode_jitter": -0.1},
            {"decode_jitter": math.nan},
            {"release_jitter": -1},
            {"release_jitter": math.inf},
        ],
    )
    def test_invalid_jitter(self, kwargs):
        # a negative decode jitter used to kill the player mid-run with
        # numpy's ``ValueError('scale < 0')``
        with pytest.raises(ValueError, match="jitter"):
            AudioPlayerConfig(**kwargs)

    def test_negative_start_burst(self):
        # used to kill the player at its first burst with numpy's
        # ``ValueError('negative dimensions are not allowed')``
        with pytest.raises(ValueError, match="start_burst"):
            AudioPlayerConfig(start_burst=-1)


class TestVideoPlayer:
    def test_gop_costs(self):
        cfg = VideoPlayerConfig(gop="IBP", i_cost=10, p_cost=5, b_cost=2)
        assert cfg.frame_cost(0) == 10
        assert cfg.frame_cost(1) == 2
        assert cfg.frame_cost(2) == 5
        assert cfg.frame_cost(3) == 10  # wraps around

    def test_mean_cost_and_utilisation(self):
        cfg = VideoPlayerConfig()
        expected = sum(cfg.frame_cost(i) for i in range(len(cfg.gop))) / len(cfg.gop)
        assert cfg.mean_cost == expected
        assert cfg.utilisation == pytest.approx(expected / cfg.period)

    def test_display_labels_emitted(self):
        kernel = Kernel(RoundRobinScheduler())
        frames = []
        kernel.add_label_probe("frame_displayed", lambda p, t, pl: frames.append(pl["frame"]))
        player = VideoPlayer()
        kernel.spawn("v", player.program(30))
        kernel.run(3 * SEC)
        assert frames == list(range(30))

    def test_25fps_pacing_when_unloaded(self):
        kernel = Kernel(RoundRobinScheduler())
        stamps = []
        kernel.add_label_probe("frame_displayed", lambda p, t, pl: stamps.append(t))
        player = VideoPlayer()
        kernel.spawn("v", player.program(50))
        kernel.run(3 * SEC)
        ifts = np.diff(stamps) / MS
        assert abs(ifts.mean() - 40.0) < 1.0

    def test_invalid_gop(self):
        with pytest.raises(ValueError):
            VideoPlayerConfig(gop="IXZ")
        with pytest.raises(ValueError):
            VideoPlayerConfig(gop="")

    @pytest.mark.parametrize("jitter", [-0.08, math.inf, math.nan])
    def test_invalid_jitter(self, jitter):
        with pytest.raises(ValueError, match="decode_jitter"):
            VideoPlayerConfig(decode_jitter=jitter)

    @pytest.mark.parametrize(
        "field, value",
        [
            # negative burst counts killed the player at its first burst
            ("start_burst", -1),
            ("end_burst", -2),
            ("i_cost", -1),
            ("p_cost", -1),
            ("b_cost", -1),
            ("intra_burst_gap", -1),
        ],
    )
    def test_negative_counts_and_costs(self, field, value):
        with pytest.raises(ValueError, match=field):
            VideoPlayerConfig(**{field: value})

    def test_self_pacing_catches_up_after_stall(self):
        """Frames behind the grid are decoded back to back, not delayed
        by an extra sleep."""
        kernel = Kernel(RoundRobinScheduler())
        stamps = []
        kernel.add_label_probe("frame_displayed", lambda p, t, pl: stamps.append(t))

        def hog_for_a_while():
            from repro.sim.instructions import Compute

            yield Compute(400 * MS)

        kernel.spawn("hog", hog_for_a_while())
        player = VideoPlayer()
        kernel.spawn("v", player.program(40))
        kernel.run(3 * SEC)
        # after the hog exits, playback re-aligns with the absolute grid
        late = stamps[-1] - (len(stamps) - 1) * 40 * MS
        assert late < 20 * MS
