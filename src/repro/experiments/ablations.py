"""Ablation studies of the design choices the paper calls out.

Not figures of the paper, but experiments its text motivates:

- :func:`run_predictors` — the prediction function P(·) (§4.4 proposes a
  quantile estimator; how do max / moving-average / EWMA compare?);
- :func:`run_spread` — the spread factor ``x`` ("typically between 10%
  and 20%": what happens outside that band?);
- :func:`run_sampling_period` — the sampling period ``S``, including the
  paper's remark 2: setting ``S`` equal to the task period "determines a
  very unstable and fluctuating behaviour for the predicted computation
  time with no apparent benefit";
- :func:`run_exhaustion_policy` — hard vs soft vs AQuoSA-background CBS
  exhaustion behaviour under the same adaptive playback;
- :func:`run_exhaustion_boost` — the §4.4-remark-1 extension (budget
  boost on frequent exhaustions, aimed at GOP I-frame peaks);
- :func:`run_tracer_input` — system-call events vs blocked→ready
  transitions (§6's ftrace alternative) as the analyser's input.

All ablations share one scenario: the Figure 13 adaptive video playback
with the desktop background mix.
"""

from __future__ import annotations

import numpy as np

from repro.core import LfsPlusPlus, SelfTuningRuntime
from repro.core.analyser import AnalyserConfig, PeriodAnalyser
from repro.core.controller import TaskControllerConfig
from repro.core.lfspp import LfsPlusPlusConfig
from repro.core.predictors import Ewma, MovingAverage
from repro.experiments.base import ExperimentResult
from repro.experiments.common import VIDEO_SPECTRUM, build_video_playback
from repro.sim.time import MS, SEC
from repro.workloads import VideoPlayer
from repro.workloads.mplayer import VideoPlayerConfig

#: wall-clock columns that legitimately differ between two runs (all of
#: them abl-detector's, from :func:`run_detector_comparison`)
TIMING_COLUMNS = ("spectrum_ms", "interval_ms")


def _playback(
    *,
    feedback,
    n_frames: int = 1000,
    seed: int = 13,
    sampling_period: int = 100 * MS,
    reservation_policy: str = "hard",
    use_period_estimate: bool = True,
):
    """One adaptive playback run; returns (ift ms array, task, player)."""
    rt = SelfTuningRuntime(reservation_policy=reservation_policy)
    player, probe, task = build_video_playback(
        rt,
        n_frames=n_frames,
        seed=seed,
        feedback=feedback,
        controller_config=TaskControllerConfig(
            sampling_period=sampling_period, use_period_estimate=use_period_estimate
        ),
    )
    rt.run(n_frames * 40 * MS)
    ift = np.array(probe.inter_frame_times, dtype=np.float64) / MS
    return ift, task, player


def _summary(ift: np.ndarray, task) -> dict:
    late = np.where(ift > 80.0)[0]
    bw = [g.bandwidth for _, g in task.controller.granted_history]
    return {
        "ift_mean_ms": float(ift.mean()),
        "ift_std_ms": float(ift.std(ddof=1)),
        "frames_over_80ms": int(late.size),
        "mean_bandwidth": float(np.mean(bw)),
    }


def run_predictors(*, n_frames: int = 1000) -> ExperimentResult:
    """Compare prediction functions for LFS++."""
    result = ExperimentResult(
        experiment="abl-predictors",
        title="LFS++ prediction function ablation",
    )
    candidates = {
        "quantile(0.9375)": lambda: LfsPlusPlus(),
        "max": lambda: LfsPlusPlus(LfsPlusPlusConfig(quantile=1.0)),
        "moving_average": lambda: LfsPlusPlus(predictor=MovingAverage(window=16)),
        "ewma(0.25)": lambda: LfsPlusPlus(predictor=Ewma(alpha=0.25)),
    }
    for name, factory in candidates.items():
        ift, task, _ = _playback(feedback=factory(), n_frames=n_frames)
        result.add_row(predictor=name, **_summary(ift, task))
    result.notes.append(
        "averaging predictors under-provision the workload peaks; the "
        "order statistics trade a little bandwidth for far fewer late frames"
    )
    return result


def run_spread(*, values: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3), n_frames: int = 1000) -> ExperimentResult:
    """Sweep the spread factor x."""
    result = ExperimentResult(
        experiment="abl-spread",
        title="LFS++ spread factor (x) ablation",
    )
    for x in values:
        law = LfsPlusPlus(LfsPlusPlusConfig(spread=x))
        ift, task, _ = _playback(feedback=law, n_frames=n_frames)
        result.add_row(spread=x, **_summary(ift, task))
    result.notes.append(
        "x buys robustness with bandwidth: reserved fraction grows ~(1+x), "
        "late frames shrink; beyond ~0.2 the returns flatten (the paper's "
        "'usually between 10% and 20%')"
    )
    return result


def run_sampling_period(
    *,
    values_ms: tuple[int, ...] = (40, 80, 100, 200, 400),
    n_frames: int = 1000,
) -> ExperimentResult:
    """Sweep the controller sampling period S (remark 2 of §4.4).

    The instability remark is quantified by the coefficient of variation
    of the *requested* budget over the converged phase: sampling at the
    task period (S = P = 40 ms) makes each sample a single-job measurement
    taken asynchronously to job boundaries — a noisy signal the predictor
    then chases.
    """
    result = ExperimentResult(
        experiment="abl-sampling",
        title="LFS++ controller sampling period (S) ablation",
    )
    for s_ms in values_ms:
        law = LfsPlusPlus()
        ift, task, _ = _playback(feedback=law, sampling_period=s_ms * MS, n_frames=n_frames)
        samples = np.array([v for t, v in law.sample_history if t > 4 * SEC])
        sample_cov = (
            float(samples.std(ddof=1) / samples.mean()) if samples.size > 3 else float("nan")
        )
        requests = np.array(
            [req.bandwidth for t, req in law.history if t > 4 * SEC and req.bandwidth > 0.06]
        )
        request_cov = (
            float(requests.std(ddof=1) / requests.mean()) if requests.size > 3 else float("nan")
        )
        row = _summary(ift, task)
        result.add_row(sampling_ms=s_ms, sample_cov=sample_cov, request_cov=request_cov, **row)
    result.notes.append(
        "sample_cov is the fluctuation of the raw per-period computation "
        "estimate.  At S = P each sample sees a single job, so the estimate "
        "carries the full job-to-job (GOP) variance — the paper's remark 2 — "
        "which S = 2-2.5P averages away (lowest sample_cov and request_cov). "
        "Pushing S much beyond that back-fires differently: the loop reacts "
        "too slowly, stall/catch-up cycles re-inflate both covs and the "
        "inter-frame dispersion grows monotonically"
    )
    return result


def run_exhaustion_policy(*, n_frames: int = 1000) -> ExperimentResult:
    """Hard vs soft vs AQuoSA-background exhaustion behaviour."""
    result = ExperimentResult(
        experiment="abl-policy",
        title="CBS exhaustion-policy ablation under adaptive playback",
    )
    for policy in ("hard", "soft", "background"):
        ift, task, _ = _playback(feedback=LfsPlusPlus(), reservation_policy=policy, n_frames=n_frames)
        result.add_row(policy=policy, **_summary(ift, task))
    result.notes.append(
        "hard enforcement maximises isolation but pays for every budget "
        "under-run; the background policy recovers overruns from best-effort "
        "slack at the cost of weaker guarantees"
    )
    return result


def run_exhaustion_boost(*, n_frames: int = 1000) -> ExperimentResult:
    """The §4.4-remark-1 budget boost on frequent exhaustions."""
    result = ExperimentResult(
        experiment="abl-boost",
        title="LFS++ exhaustion-boost extension (GOP peak coverage)",
    )
    laws = {
        "off": LfsPlusPlus(),
        "on": LfsPlusPlus(
            LfsPlusPlusConfig(exhaustion_rate_threshold=0.3, exhaustion_boost=0.3)
        ),
    }
    for name, law in laws.items():
        ift, task, _ = _playback(feedback=law, n_frames=n_frames)
        result.add_row(boost=name, boosts_tripped=law.boosts, **_summary(ift, task))
    result.notes.append(
        "the boost spends a little extra bandwidth whenever the server "
        "exhausts repeatedly (I-frame bursts), trimming the inter-frame "
        "time dispersion"
    )
    return result


def run_tracer_input(*, reps: int = 15) -> ExperimentResult:
    """Analyser input: syscall events vs blocked→ready transitions (§6).

    Two workloads are observed through both tracers:

    - a simple periodic task (one wake-up per job) — the clean case §6
      has in mind;
    - the mp3 player, which wakes *three* times per period to push ALSA
      chunks — where the wake-up train carries the device-write rate
      (97.5 Hz) but loses the job-level asymmetry the syscall bursts
      carry, so the detector reports a multiple of the job rate.

    Detection quality and event volume (a proxy for tracing/analysis
    cost) are reported per combination.
    """
    from repro.core.spectrum import SpectrumConfig
    from repro.experiments.common import MP3_SPECTRUM, build_mp3_scenario
    from repro.sched import CbsScheduler
    from repro.sim import Kernel
    from repro.tracer import QTracer, WakeupTracer
    from repro.workloads import PeriodicTaskConfig, periodic_task

    result = ExperimentResult(
        experiment="abl-tracer-input",
        title="Period detection from syscalls vs scheduler wake-ups",
    )

    def detect(times, spectrum):
        analyser = PeriodAnalyser(
            AnalyserConfig(spectrum=spectrum, horizon_ns=2 * SEC, min_events=8)
        )
        analyser.add_times(times)
        estimate = analyser.analyse(4 * SEC)
        return estimate.frequency if estimate else None

    # --- workload 1: simple periodic task at 25 Hz --------------------
    periodic_spectrum = SpectrumConfig(f_min=15.0, f_max=100.0, df=0.1)
    for source in ("syscalls", "wakeups"):
        detections, volumes = [], []
        for r in range(reps):
            kernel = Kernel(CbsScheduler())
            tracer = QTracer()
            kernel.add_tracer(tracer)
            wakeup = WakeupTracer()
            wakeup.install(kernel)
            cfg = PeriodicTaskConfig(cost=5 * MS, period=40 * MS, extra_syscalls=4, seed=r)
            proc = kernel.spawn("rt", periodic_task(cfg))
            tracer.trace_pid(proc.pid)
            wakeup.trace_pid(proc.pid)
            kernel.run(4 * SEC)
            times = (
                [e.time for e in tracer.buffer.drain() if e.pid == proc.pid]
                if source == "syscalls"
                else [e.time for e in wakeup.drain()]
            )
            volumes.append(len(times))
            f = detect(times, periodic_spectrum)
            if f is not None:
                detections.append(f)
        arr = np.array(detections)
        result.add_row(
            workload="periodic-25Hz",
            source=source,
            detections=len(detections),
            avg_hz=float(arr.mean()) if arr.size else float("nan"),
            std_hz=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            events_per_run=float(np.mean(volumes)),
        )

    # --- workload 2: the mp3 player (3 wake-ups per period) -----------
    for source in ("syscalls", "wakeups"):
        detections, volumes = [], []
        for r in range(reps):
            scenario = build_mp3_scenario(seed=4000 + r, n_load=0, n_frames=140)
            wakeup = WakeupTracer()
            wakeup.install(scenario.kernel)
            wakeup.trace_pid(scenario.player_pid)
            scenario.kernel.run(4 * SEC)
            times = (
                [e.time for e in scenario.tracer.buffer.drain() if e.pid == scenario.player_pid]
                if source == "syscalls"
                else [e.time for e in wakeup.drain()]
            )
            volumes.append(len(times))
            f = detect(times, MP3_SPECTRUM)
            if f is not None:
                detections.append(f)
        arr = np.array(detections)
        result.add_row(
            workload="mp3-32.5Hz",
            source=source,
            detections=len(detections),
            avg_hz=float(arr.mean()) if arr.size else float("nan"),
            std_hz=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            events_per_run=float(np.mean(volumes)),
        )
    result.notes.append(
        "for one-wake-per-job tasks, wake-up tracing matches syscall "
        "tracing with ~10x fewer events; for the mp3 player the wake train "
        "reports the device-write rate (3x the job rate) — scheduler "
        "transitions lose the job-level asymmetry that syscall bursts carry"
    )
    return result


def run_smp(*, n_players: int = 4, n_frames: int = 300) -> ExperimentResult:
    """Multicore scaling (§6's multicore direction).

    ``n_players`` adaptive 25 fps players run under three configurations:
    one CPU (their cumulative demand exceeds the supervisor bound and
    playback degrades), two *partitioned* CPUs with worst-fit placement,
    and two CPUs under *global* CBS (gEDF over the servers, migrations
    allowed).
    """
    from repro.core import SelfTuningRuntime
    from repro.core.smp import SmpSelfTuningRuntime
    from repro.metrics import InterFrameProbe

    result = ExperimentResult(
        experiment="abl-smp",
        title="Adaptive reservations on multicore: 1 CPU vs partitioned vs global",
    )

    def adopt_kwargs():
        return dict(
            feedback=LfsPlusPlus(),
            controller_config=TaskControllerConfig(sampling_period=100 * MS),
            analyser_config=AnalyserConfig(spectrum=VIDEO_SPECTRUM, horizon_ns=2 * SEC),
        )

    def summarise(label, probes, bandwidths):
        means = [np.mean(np.array(p.inter_frame_times) / MS) for p in probes if p.inter_frame_times]
        stds = [
            np.std(np.array(p.inter_frame_times) / MS, ddof=1)
            for p in probes
            if len(p.inter_frame_times) > 1
        ]
        result.add_row(
            configuration=label,
            players=n_players,
            worst_ift_mean_ms=float(max(means)),
            worst_ift_std_ms=float(max(stds)),
            granted_bandwidth_per_cpu=bandwidths,
        )

    # partitioned: 1 CPU (overload) and 2 CPUs (worst-fit placement)
    for n_cpus in (1, 2):
        smp = SmpSelfTuningRuntime(n_cpus)
        probes = []
        for i in range(n_players):
            player = VideoPlayer(VideoPlayerConfig(seed=20 + i, phase=i * 7 * MS))
            cpu, proc, _ = smp.place(f"player{i}", player.program(n_frames), **adopt_kwargs())
            probe = InterFrameProbe(pid=proc.pid)
            probe.install(smp.cpus[cpu].kernel)
            probes.append(probe)
        smp.run(n_frames * 40 * MS)
        label = "1cpu" if n_cpus == 1 else "2cpu-partitioned"
        summarise(label, probes, [round(smp.granted_bandwidth(c), 3) for c in range(n_cpus)])

    # global: 2 CPUs, one run queue, gEDF over the CBS servers
    rt = SelfTuningRuntime(n_cpus=2)
    probes = []
    for i in range(n_players):
        player = VideoPlayer(VideoPlayerConfig(seed=20 + i, phase=i * 7 * MS))
        proc = rt.spawn(f"player{i}", player.program(n_frames))
        probe = InterFrameProbe(pid=proc.pid)
        probe.install(rt.kernel)
        rt.adopt(proc, **adopt_kwargs())
        probes.append(probe)
    rt.run(n_frames * 40 * MS)
    summarise(
        "2cpu-global", probes, [round(rt.supervisor.total_granted_bandwidth(), 3)]
    )
    result.notes.append(
        "both multicore configurations hold the 40 ms average the single "
        "CPU cannot; global CBS needs no placement decisions (tasks "
        "migrate freely) at the price of gEDF's weaker analysability"
    )
    return result


def run_rate_change(*, n_frames_per_phase: int = 300) -> ExperimentResult:
    """Time-varying requirements: a 25→50 fps switch mid-playback.

    The paper's §1 motivation in one experiment: the application's rate
    (and thus the correct reservation period) changes at run time; the
    analyser re-detects it and the loop re-converges, with the hysteresis
    bounding the adaptation latency.

    The 50 fps row is the median of the estimates taken more than 4 s
    after the switch, so the second phase (20 ms a frame) must outlast
    those 4 s by a 100 ms sampling period: 206 frames per phase at least,
    else ``ValueError``.
    """
    from repro.core import SelfTuningRuntime
    from repro.metrics import InterFrameProbe

    settle, sampling = 4 * SEC, 100 * MS
    least = (settle + sampling) // (20 * MS) + 1
    if n_frames_per_phase < least:
        raise ValueError(
            f"n_frames_per_phase must be at least {least} for an estimate to follow "
            f"the switch by more than {settle // SEC} s, got {n_frames_per_phase}"
        )
    result = ExperimentResult(
        experiment="abl-rate-change",
        title="Tracking a mid-run rate change (25 fps → 50 fps)",
    )
    rt = SelfTuningRuntime()
    phase1 = VideoPlayer(VideoPlayerConfig(seed=3))
    phase2 = VideoPlayer(
        VideoPlayerConfig(
            seed=4, period=20 * MS, i_cost=8 * MS, p_cost=6 * MS, b_cost=5 * MS,
            phase=n_frames_per_phase * 40 * MS,
        )
    )

    def chained():
        yield from phase1.program(n_frames_per_phase)
        yield from phase2.program(n_frames_per_phase)

    proc = rt.spawn("mplayer", chained())
    probe = InterFrameProbe(pid=proc.pid)
    probe.install(rt.kernel)
    task = rt.adopt(
        proc,
        feedback=LfsPlusPlus(),
        controller_config=TaskControllerConfig(sampling_period=sampling),
        analyser_config=AnalyserConfig(spectrum=VIDEO_SPECTRUM, horizon_ns=2 * SEC),
    )
    switch_at = n_frames_per_phase * 40 * MS
    rt.run(switch_at + n_frames_per_phase * 20 * MS)

    history = task.controller.period_history
    confirmed_20 = [t for t, p in history if p and abs(p - 20 * MS) < 1 * MS]
    stamps = np.array(probe.display_times)
    ift = np.diff(stamps) / MS
    split = np.searchsorted(stamps[1:], switch_at)
    result.add_row(
        phase="25fps",
        period_detected_ms=float(np.median([p for t, p in history if p and t < switch_at]) / MS),
        ift_mean_ms=float(ift[: max(split - 5, 1)].mean()),
    )
    result.add_row(
        phase="50fps",
        period_detected_ms=float(
            np.median([p for t, p in history if p and t > switch_at + settle]) / MS
        ),
        ift_mean_ms=float(ift[-max(n_frames_per_phase - 60, 10):].mean()),
    )
    if confirmed_20:
        result.notes.append(
            f"new rate confirmed {(confirmed_20[0] - switch_at) / SEC:.1f}s after "
            "the switch (observation-window refill + hysteresis)"
        )
    return result


def run_detector_comparison(*, reps: int = 12) -> ExperimentResult:
    """Frequency-domain vs time-domain period detection.

    The paper chose a sparse-spectrum detector; its cited pitch-extraction
    literature [11, 20] also contains time-domain (autocorrelation)
    methods.  :class:`repro.core.autocorr.IntervalHistogramDetector`
    implements that alternative; this ablation compares the two on clean
    and loaded mp3 traces.
    """
    import time as _time

    from repro.core.autocorr import IntervalHistogramDetector
    from repro.experiments.common import build_mp3_scenario, detect_frequency, trace_mp3

    result = ExperimentResult(
        experiment="abl-detector",
        title="Sparse-spectrum vs interval-histogram period detection",
    )
    for n_load, label in ((0, "idle"), (4, "60% RT load")):
        spectrum_hits = 0
        interval_hits = 0
        spectrum_ms: list[float] = []
        interval_ms: list[float] = []
        for r in range(reps):
            scenario = build_mp3_scenario(seed=5000 + r, n_load=n_load, n_frames=140)
            times = trace_mp3(scenario, 4 * SEC)

            t0 = _time.perf_counter()
            f_spec = detect_frequency(times, horizon_ns=2 * SEC, now=4 * SEC)
            spectrum_ms.append((_time.perf_counter() - t0) * 1e3)
            if f_spec is not None and abs(f_spec - 32.5) < 1.0:
                spectrum_hits += 1

            t0 = _time.perf_counter()
            est = IntervalHistogramDetector().detect(
                [t for t in times if t >= 2 * SEC]
            )
            interval_ms.append((_time.perf_counter() - t0) * 1e3)
            if est.frequency is not None and abs(est.frequency - 32.5) < 1.0:
                interval_hits += 1
        result.add_row(
            condition=label,
            spectrum_accuracy=spectrum_hits / reps,
            interval_accuracy=interval_hits / reps,
            spectrum_ms=float(np.mean(spectrum_ms)),
            interval_ms=float(np.mean(interval_ms)),
        )
    result.notes.append(
        "both detectors are exact on clean traces; under load the "
        "time-domain method collapses to the ALSA write grid (3x) sooner "
        "than the spectrum method — the multi-burst structure hurts the "
        "interval histogram more, vindicating the paper's frequency-domain "
        "choice for this workload class"
    )
    return result


def _importance_score(ift: np.ndarray, task) -> float:
    """Scalar playback objective (lower is better) for :func:`run_importance`.

    Weighted like the tune objective: late frames dominate, then the
    inter-frame dispersion, then the bandwidth spent to get there.
    """
    s = _summary(ift, task)
    return s["frames_over_80ms"] + s["ift_std_ms"] + 10.0 * s["mean_bandwidth"]


def run_importance(*, n_frames: int = 1000) -> ExperimentResult:
    """Component-importance scores for the self-tuning stack.

    Each component of the closed loop is knocked out in isolation on the
    standard adaptive-playback scenario, and the variants are ranked
    with :func:`repro.tune.report.rank_importance` — the shared
    aumai-style ranking also used for the tuner's sensitivity report.
    A *positive* delta means removing the component worsens the
    objective (it earns its complexity); a *negative* delta flags a
    component that is harmful on this workload.
    """
    from repro.tune.report import rank_importance

    result = ExperimentResult(
        experiment="abl-importance",
        title="Component importance of the self-tuning stack",
    )

    def score_variant(**overrides) -> tuple[float, dict]:
        feedback = overrides.pop("feedback", None) or LfsPlusPlus()
        ift, task, _ = _playback(feedback=feedback, n_frames=n_frames, **overrides)
        return _importance_score(ift, task), _summary(ift, task)

    baseline_score, baseline_summary = score_variant()
    variants = {
        "quantile-predictor": dict(
            feedback=LfsPlusPlus(predictor=MovingAverage(window=16))
        ),
        "spread-margin": dict(feedback=LfsPlusPlus(LfsPlusPlusConfig(spread=0.0))),
        "rate-detection": dict(use_period_estimate=False),
        "hard-enforcement": dict(reservation_policy="soft"),
    }
    scores: dict[str, float] = {}
    summaries: dict[str, dict] = {}
    for name, overrides in variants.items():
        scores[name], summaries[name] = score_variant(**dict(overrides))
    result.add_row(
        component="(baseline)", score=baseline_score, delta=0.0, harmful=False,
        **baseline_summary,
    )
    for record in rank_importance(baseline_score, scores):
        result.add_row(
            component=record["name"],
            score=record["score"],
            delta=record["delta"],
            harmful=record["harmful"],
            **summaries[record["name"]],
        )
    result.notes.append(
        "each row knocks out one component (ablation); delta > 0 means the "
        "loop is worse without it — the ranking orders the stack's "
        "components by how much of the closed-loop quality they carry"
    )
    return result


def run(**kwargs) -> ExperimentResult:
    """Default entry point: the predictor ablation (CLI compatibility)."""
    return run_predictors(**kwargs)
