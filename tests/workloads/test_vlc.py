"""Tests for the two-thread vlc player model."""

import math

import numpy as np
import pytest

from repro.core import LfsPlusPlus, SelfTuningRuntime
from repro.core.analyser import AnalyserConfig
from repro.core.controller import TaskControllerConfig
from repro.core.spectrum import SpectrumConfig
from repro.metrics import InterFrameProbe
from repro.sched import RoundRobinScheduler
from repro.sim import Kernel, KernelConfig, MS, SEC
from repro.workloads import VlcConfig, VlcPlayer

ANALYSER = AnalyserConfig(
    spectrum=SpectrumConfig(f_min=20.0, f_max=100.0, df=0.1), horizon_ns=2 * SEC
)


class TestStandalone:
    def _run(self, n_frames=100, seconds=5):
        kernel = Kernel(RoundRobinScheduler(), KernelConfig(context_switch_cost=0))
        player = VlcPlayer()
        stamps = []
        kernel.add_label_probe("frame_displayed", lambda p, t, pl: stamps.append(t))
        dec = kernel.spawn("vlc-decode", player.decoder_program(n_frames))
        out = kernel.spawn("vlc-output", player.output_program(n_frames))
        kernel.run(seconds * SEC)
        return player, dec, out, stamps

    def test_all_frames_displayed(self):
        player, dec, out, stamps = self._run()
        assert player.frames_displayed == 100
        assert player.frames_decoded == 100
        assert not dec.alive and not out.alive

    def test_pacing_on_the_25fps_grid(self):
        player, dec, out, stamps = self._run()
        ift = np.diff(stamps) / MS
        assert abs(ift.mean() - 40.0) < 1.0
        assert ift.std() < 3.0

    def test_queue_bounds_respected(self):
        cfg = VlcConfig(queue_depth=2)
        kernel = Kernel(RoundRobinScheduler())
        player = VlcPlayer(cfg)
        kernel.spawn("d", player.decoder_program(60))
        kernel.spawn("o", player.output_program(60))
        kernel.run(4 * SEC)
        assert player.frames_displayed == 60

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            VlcConfig(queue_depth=0)
        with pytest.raises(ValueError):
            VlcConfig(period=0)

    @pytest.mark.parametrize("jitter", [-0.12, math.inf, math.nan])
    def test_invalid_jitter(self, jitter):
        # a negative jitter used to pass as "no jitter"
        with pytest.raises(ValueError, match="decode_jitter"):
            VlcConfig(decode_jitter=jitter)

    def test_utilisation(self):
        cfg = VlcConfig(decode_cost=9 * MS, blit_cost=1 * MS, period=40 * MS)
        assert cfg.utilisation == pytest.approx(0.25)


class TestGroupAdoption:
    def test_vlc_threads_adopted_as_a_group(self):
        """The §6 multi-threaded case end to end: both threads in one
        adaptive reservation, period inferred from the merged trace."""
        rt = SelfTuningRuntime()
        player = VlcPlayer()
        dec = rt.spawn("vlc-decode", player.decoder_program(300))
        out = rt.spawn("vlc-output", player.output_program(300))
        probe = InterFrameProbe(pid=out.pid)
        probe.install(rt.kernel)

        def hog():
            from repro.sim.instructions import Compute

            while True:
                yield Compute(10 * MS)

        rt.spawn("hog", hog())
        task = rt.adopt_group(
            [dec, out],
            feedback=LfsPlusPlus(),
            controller_config=TaskControllerConfig(sampling_period=100 * MS),
            analyser_config=ANALYSER,
        )
        rt.run(300 * 40 * MS)
        assert player.frames_displayed >= 290
        est = task.controller.current_period_estimate()
        assert est == pytest.approx(40 * MS, rel=0.03)
        ift = np.array(probe.inter_frame_times) / MS
        assert abs(ift.mean() - 40.0) < 2.0
        # the aggregate reservation covers both threads' demand
        assert task.server.params.bandwidth >= player.config.utilisation * 0.95