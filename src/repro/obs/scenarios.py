"""Traceable scenarios for ``repro-exp trace``.

Each entry builds a workload, attaches a telemetry hub, runs the
simulation and returns the hub — ready for the exporters.  The registry
keys are what the CLI accepts::

    repro-exp trace fig13                # LFS++ adopting mplayer (Fig. 13)
    repro-exp trace fig13-lfs            # same video under original LFS
    repro-exp trace daemon               # autonomous adoption end to end
    repro-exp trace qtrace-agent         # tracer download agent at work

Scenario parameters accept ``key=value`` overrides like experiment
parameters do (``repro-exp trace fig13 n_frames=120 seed=7``).  Defaults
are sized for an artifact that opens snappily in Perfetto (a few seconds
of virtual time, thousands — not millions — of events).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.obs.instrument import instrument_kernel, instrument_runtime
from repro.obs.telemetry import Telemetry, TelemetryConfig


def trace_fig13(*, n_frames: int = 250, seed: int = 13, law: str = "lfs++") -> Telemetry:
    """The Figure 13 mplayer playback under adaptive reservations."""
    from repro.core import SelfTuningRuntime
    from repro.experiments import fig13
    from repro.experiments.common import build_video_playback
    from repro.sim.time import MS

    feedback, controller_config = fig13.law(law)
    rt = SelfTuningRuntime()
    telemetry = instrument_runtime(rt)
    build_video_playback(
        rt, n_frames=n_frames, seed=seed, feedback=feedback, controller_config=controller_config
    )
    rt.run((n_frames * 40 + 2000) * MS)
    telemetry.close_open_spans()
    return telemetry


def trace_fig13_lfs(*, n_frames: int = 250, seed: int = 13) -> Telemetry:
    """The same playback under the original LFS feedback law."""
    return trace_fig13(n_frames=n_frames, seed=seed, law="lfs")


def trace_daemon(*, duration_s: float = 12.0, seed: int = 21, n_frames: int = 280) -> Telemetry:
    """Autonomous adoption: the daemon probes, rejects and adopts."""
    from repro.core import SelfTuningRuntime
    from repro.core.analyser import AnalyserConfig
    from repro.core.controller import TaskControllerConfig
    from repro.core.daemon import SelfTuningDaemon
    from repro.core.spectrum import SpectrumConfig
    from repro.obs.instrument import instrument_daemon
    from repro.sim.time import MS, SEC
    from repro.workloads import FfmpegConfig, VideoPlayer, ffmpeg_transcode
    from repro.workloads.desktop import desktop_load, desktop_suite
    from repro.workloads.mplayer import VideoPlayerConfig

    rt = SelfTuningRuntime()
    player = VideoPlayer(VideoPlayerConfig(seed=seed))
    rt.spawn("mplayer", player.program(n_frames))
    rt.spawn("ffmpeg", ffmpeg_transcode(FfmpegConfig(n_frames=4000, seed=5)))
    for i, cfg in enumerate(desktop_suite(seed + 56)):
        rt.spawn(f"desktop{i}", desktop_load(cfg))
    daemon = SelfTuningDaemon(
        rt,
        analyser_config=AnalyserConfig(
            spectrum=SpectrumConfig(f_min=20.0, f_max=100.0, df=0.1), horizon_ns=2 * SEC
        ),
        controller_config=TaskControllerConfig(sampling_period=100 * MS),
    )
    telemetry = instrument_daemon(daemon)
    daemon.start()
    rt.run(int(duration_s * SEC))
    telemetry.close_open_spans()
    return telemetry


def trace_qtrace_agent(*, duration_s: float = 4.0, seed: int = 3) -> Telemetry:
    """The qtrace download agent draining a traced audio player."""
    from repro.sched import CbsScheduler, ServerParams
    from repro.sim import Kernel, MS, SEC
    from repro.sim.time import US
    from repro.tracer.qtrace import QTracer
    from repro.workloads import AudioPlayer
    from repro.workloads.mplayer import AudioPlayerConfig

    scheduler = CbsScheduler()
    kernel = Kernel(scheduler)
    tracer = QTracer()
    kernel.add_tracer(tracer)
    telemetry = instrument_kernel(kernel, Telemetry(TelemetryConfig()))
    player = AudioPlayer(AudioPlayerConfig(seed=seed))
    n_frames = int(duration_s * SEC / player.config.period) + 2
    mp3 = kernel.spawn("mp3", player.program(n_frames))
    server = scheduler.create_server(
        ServerParams(budget=2500 * US, period=30_769 * US, policy="background"), "mp3"
    )
    scheduler.attach(mp3, server)
    tracer.trace_pid(mp3.pid)
    tracer.spawn_download_agent(kernel, period=100 * MS)
    kernel.run(int(duration_s * SEC))
    telemetry.close_open_spans()
    return telemetry


#: name -> zero-config scenario callable (kwargs are CLI overrides)
TRACE_SCENARIOS: dict[str, Callable[..., Telemetry]] = {
    "fig13": trace_fig13,
    "fig13-lfs": trace_fig13_lfs,
    "daemon": trace_daemon,
    "qtrace-agent": trace_qtrace_agent,
}


def run_trace_scenario(name: str, overrides: dict | None = None) -> Telemetry:
    """Build and run scenario ``name`` with ``overrides``."""
    try:
        fn = TRACE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace scenario {name!r}; known: {sorted(TRACE_SCENARIOS)}"
        ) from None
    return fn(**(overrides or {}))
