"""Shared scenario builders for the experiment modules."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core import AnalyserConfig, PeriodAnalyser, SelfTuningRuntime
from repro.core.controller import FeedbackLaw, TaskControllerConfig
from repro.core.runtime import AdoptedTask
from repro.core.spectrum import SpectrumConfig
from repro.metrics import InterFrameProbe
from repro.sched import CbsScheduler, ServerParams
from repro.sim import Kernel, SEC
from repro.sim.process import Program
from repro.sim.time import US
from repro.tracer import QTracer
from repro.workloads import AudioPlayer, VideoPlayer, periodic_task, PeriodicTaskConfig
from repro.workloads.desktop import desktop_load, desktop_suite
from repro.workloads.io import Disk, DiskConfig
from repro.workloads.mplayer import AudioPlayerConfig, VideoPlayerConfig

#: the (budget us, period us) reservations of Table 2, ~15% each; row k of
#: the table runs the first k of them concurrently
TABLE2_RESERVATIONS = [(645, 4300), (1200, 8000), (1650, 11000), (2250, 15000)]

#: frequency grid of the mp3 experiments (the paper's Figs. 10-11 scan
#: 30-100 Hz)
MP3_SPECTRUM = SpectrumConfig(f_min=30.0, f_max=100.0, df=0.1)

#: analyser band for the 25 fps video of §5.4 (fundamental 25 Hz,
#: harmonics in band)
VIDEO_SPECTRUM = SpectrumConfig(f_min=20.0, f_max=100.0, df=0.1)


@dataclass
class Mp3Scenario:
    """A traced mp3-playback run: mplayer + desktop + optional RT load."""

    kernel: Kernel
    scheduler: CbsScheduler
    tracer: QTracer
    player: AudioPlayer
    player_pid: int
    load_pids: list[int] = field(default_factory=list)

    @property
    def player_proc(self):
        """The mplayer process handle (for latency introspection)."""
        return self.kernel.processes[self.player_pid]


def build_mp3_scenario(
    *,
    seed: int = 0,
    n_load: int = 0,
    n_frames: int = 400,
    with_desktop: bool = True,
    with_disk: bool = True,
    player_config: AudioPlayerConfig | None = None,
) -> Mp3Scenario:
    """Assemble the canonical §5.2/§5.3 testbed.

    An unreserved mplayer instance playing an mp3, traced by qtrace, with
    the desktop background mix and (optionally) the first ``n_load``
    Table 2 reservations running synthetic periodic load.
    """
    scheduler = CbsScheduler()
    kernel = Kernel(scheduler)
    tracer = QTracer()
    kernel.add_tracer(tracer)

    disk = Disk(kernel, DiskConfig(service_cost=6_000_000, seed=seed + 77)) if with_disk else None
    player = AudioPlayer(player_config or AudioPlayerConfig(seed=seed))
    proc = kernel.spawn("mplayer", player.program(n_frames, disk=disk))
    tracer.trace_pid(proc.pid)

    if with_desktop:
        for i, cfg in enumerate(desktop_suite(seed + 500)):
            kernel.spawn(f"desktop{i}", desktop_load(cfg))

    load_pids = []
    for i in range(n_load):
        budget_us, period_us = TABLE2_RESERVATIONS[i]
        task_cfg = PeriodicTaskConfig(
            cost=int(budget_us * 0.9) * US,
            period=period_us * US,
            seed=seed + 1000 + i,
            phase=((seed * 131 + i * 977) % period_us) * US,
        )
        proc_load = kernel.spawn(f"rtload{i}", periodic_task(task_cfg))
        server = scheduler.create_server(
            ServerParams(budget=budget_us * US, period=period_us * US)
        )
        scheduler.attach(proc_load, server)
        load_pids.append(proc_load.pid)

    return Mp3Scenario(
        kernel=kernel,
        scheduler=scheduler,
        tracer=tracer,
        player=player,
        player_pid=proc.pid,
        load_pids=load_pids,
    )


def build_video_playback(
    runtime: SelfTuningRuntime,
    *,
    n_frames: int,
    seed: int,
    feedback: FeedbackLaw | None = None,
    controller_config: TaskControllerConfig | None = None,
    analyser_config: AnalyserConfig | None = None,
    wrap: Callable[[Program], Program] | None = None,
    u_min: float = 0.0,
) -> tuple[VideoPlayer, InterFrameProbe, AdoptedTask]:
    """Assemble the §5.4 testbed (Figs. 13-14, Table 3) on ``runtime``.

    A 25 fps mplayer playing ``n_frames`` (its program passed through
    ``wrap`` when given, e.g. a fault injector) with an inter-frame probe,
    the desktop background mix, and the player adopted under ``feedback``
    (LFS++ by default) with an analyser scanning :data:`VIDEO_SPECTRUM`
    over a 2 s horizon unless ``analyser_config`` says otherwise.  The
    caller builds the runtime (policy, tracer, instrumentation) and runs
    it for as long as it needs.
    """
    player = VideoPlayer(VideoPlayerConfig(seed=seed))
    program = player.program(n_frames)
    proc = runtime.spawn("mplayer", wrap(program) if wrap is not None else program)
    probe = InterFrameProbe(pid=proc.pid)
    probe.install(runtime.kernel)
    # the desktop background mix: reservations only matter because the
    # best-effort class (where budget-exhausted tasks overflow) is busy
    for i, cfg in enumerate(desktop_suite(seed + 40)):
        runtime.spawn(f"desktop{i}", desktop_load(cfg))
    if analyser_config is None:
        analyser_config = AnalyserConfig(spectrum=VIDEO_SPECTRUM, horizon_ns=2 * SEC)
    task = runtime.adopt(
        proc,
        feedback=feedback,
        controller_config=controller_config,
        analyser_config=analyser_config,
        u_min=u_min,
    )
    return player, probe, task


def trace_mp3(scenario: Mp3Scenario, duration_ns: int) -> list[int]:
    """Run the scenario and return the player's event timestamps."""
    scenario.kernel.run(duration_ns)
    return [
        e.time
        for e in scenario.tracer.buffer.drain()
        if e.pid == scenario.player_pid
    ]


def detect_frequency(
    times_ns,
    *,
    horizon_ns: int = 2 * SEC,
    spectrum: SpectrumConfig = MP3_SPECTRUM,
    epsilon: float | None = None,
    alpha: float | None = None,
    now: int | None = None,
) -> float | None:
    """One-shot period detection on a recorded event train."""
    from repro.core.peaks import PeakConfig

    peaks = PeakConfig(
        alpha=0.2 if alpha is None else alpha,
        epsilon=0.5 if epsilon is None else epsilon,
    )
    analyser = PeriodAnalyser(
        AnalyserConfig(spectrum=spectrum, peaks=peaks, horizon_ns=horizon_ns)
    )
    times = list(times_ns)
    analyser.add_times(times)
    stamp = now if now is not None else (max(times) if times else 0)
    estimate = analyser.analyse(stamp)
    return estimate.frequency if estimate else None
