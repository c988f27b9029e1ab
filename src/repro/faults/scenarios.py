"""Runnable fault scenarios for ``repro-exp faults``.

Each scenario is the Figure 13 playback (mplayer at 25 fps over the
desktop mix, adopted by LFS++) with one fault family switched on and the
degradation guards armed: the analyser band/monotonicity guards, the
controller's last-good fallback, and — where the fault attacks the
supervisor — the starvation watchdog.  Scenarios accept ``key=value``
overrides like experiments do::

    repro-exp faults trace-loss intensity=0.6
    repro-exp faults ring-overrun mode=stall -o overrun.perfetto.json
    repro-exp faults saturation hardened=False   # watch it fail instead

Every run returns a :class:`FaultRun` carrying the telemetry hub (fault
spans on ``faults/<kind>`` tracks next to the controller's epochs — the
Perfetto cause-and-effect view), the armed harness, and a metrics dict
with the deadline-miss ratio and the guard counters.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.faults.harness import FaultHarness
from repro.faults.injectors import (
    ClockCoarsening,
    RingPressure,
    SupervisorSaturation,
    TraceTamper,
    WorkloadFaults,
)
from repro.faults.plan import FaultPlan
from repro.sim.time import MS, SEC

#: late-frame threshold shared with fig13 (a 25 fps frame > 80 ms late)
MISS_THRESHOLD_MS = 80.0

#: default fault window: let the loop converge for 4 s, misbehave for 8 s
FAULT_START = 4 * SEC
FAULT_END = 12 * SEC


@dataclass
class FaultRun:
    """Everything one fault scenario produced."""

    #: scenario name
    scenario: str
    #: telemetry hub (fault spans + controller epochs), Perfetto-ready
    telemetry: object
    #: the armed injectors
    harness: FaultHarness
    #: headline numbers (miss ratio, guard counters, injection counts)
    metrics: dict = field(default_factory=dict)

    def report_text(self) -> str:
        """Human-readable digest for the CLI."""
        lines = [f"fault scenario: {self.scenario}"]
        for key, value in self.metrics.items():
            if isinstance(value, float):
                lines.append(f"  {key:24s} {value:.4f}")
            else:
                lines.append(f"  {key:24s} {value}")
        for summary in self.harness.summary():
            kind = summary.pop("kind")
            injected = summary.pop("injected")
            detail = ", ".join(f"{k}={v}" for k, v in summary.items())
            lines.append(f"  injected[{kind}]           {injected}" + (f" ({detail})" if detail else ""))
        return "\n".join(lines)


def _hardened_configs(hardened: bool):
    """Controller + analyser configs with the degradation guards on/off."""
    from repro.core.analyser import AnalyserConfig
    from repro.core.controller import TaskControllerConfig
    from repro.experiments.common import VIDEO_SPECTRUM

    if hardened:
        # the decay floor is a *livable* bandwidth for 25 fps video, not a
        # starvation level: dropout means "fly blind on the last good
        # grant, shrinking toward the floor", not "give up on the task"
        controller = TaskControllerConfig(
            sampling_period=100 * MS, dropout_after=3, dropout_decay=0.9, dropout_floor=0.25
        )
        analyser = AnalyserConfig(
            spectrum=VIDEO_SPECTRUM,
            horizon_ns=2 * SEC,
            reject_backwards=True,
            period_band=(10 * MS, 200 * MS),
        )
    else:
        controller = TaskControllerConfig(sampling_period=100 * MS)
        analyser = AnalyserConfig(
            spectrum=VIDEO_SPECTRUM, horizon_ns=2 * SEC, reject_backwards=False
        )
    return controller, analyser


def _playback(
    scenario: str,
    arm,
    *,
    intensity: float,
    n_frames: int,
    seed: int,
    hardened: bool,
    u_min: float = 0.0,
    watchdog: bool = False,
    wrap_program=None,
    ring_capacity: int | None = None,
) -> FaultRun:
    """Run one faulted Figure 13 playback; ``arm(rt, harness)`` installs."""
    from repro.core import SelfTuningRuntime
    from repro.experiments.common import build_video_playback
    from repro.obs.instrument import instrument_runtime
    from repro.tracer.qtrace import QTraceConfig

    tracer_config = (
        QTraceConfig(buffer_capacity=ring_capacity) if ring_capacity is not None else None
    )
    rt = SelfTuningRuntime(tracer_config=tracer_config)
    telemetry = instrument_runtime(rt)
    harness = FaultHarness()
    controller_config, analyser_config = _hardened_configs(hardened)
    player, probe, task = build_video_playback(
        rt,
        n_frames=n_frames,
        seed=seed,
        controller_config=controller_config,
        analyser_config=analyser_config,
        wrap=partial(wrap_program, harness) if wrap_program is not None else None,
        # the u_min guarantee is one of the guards under test: the
        # unhardened ablation runs without it
        u_min=u_min if hardened else 0.0,
    )
    arm(rt, harness)
    # mark the kernel as fault-injected — even at zero intensity — so the
    # schedule-cycle fast-forward of :mod:`repro.sim.cycles` refuses to
    # extrapolate a run whose timeline a fault plan may perturb
    rt.kernel.fault_plan = harness
    harness.attach_telemetry(telemetry)
    if watchdog and hardened:
        rt.supervisor.start_watchdog(rt.kernel, 500 * MS)

    rt.run((n_frames * 40 + 2000) * MS)
    harness.close(rt.kernel.clock)
    telemetry.close_open_spans()

    ift_ms = np.array(probe.inter_frame_times, dtype=np.float64) / MS
    late = int(np.count_nonzero(ift_ms > MISS_THRESHOLD_MS)) if ift_ms.size else 0
    true_period = player.config.period
    est_errors = [
        abs(p - true_period) / true_period
        for t, p in task.controller.period_history
        if p is not None and t >= FAULT_START
    ]
    analyser = task.analyser
    metrics = {
        "intensity": intensity,
        "hardened": hardened,
        "frames_played": player.frames_played,
        "miss_ratio": late / ift_ms.size if ift_ms.size else 1.0,
        "late_frames": late,
        "ift_mean_ms": float(ift_ms.mean()) if ift_ms.size else float("nan"),
        "controller_fallbacks": task.controller.fallbacks,
        "tracer_overruns": rt.tracer.overruns(),
        "watchdog_repairs": rt.supervisor.watchdog_repairs,
        "period_error": float(np.mean(est_errors)) if est_errors else float("nan"),
    }
    if analyser is not None:
        metrics["analyser_anomalies"] = dict(analyser.anomalies)
        metrics["analyser_overruns"] = analyser.overruns
    return FaultRun(scenario=scenario, telemetry=telemetry, harness=harness, metrics=metrics)


# ----------------------------------------------------------------------
# the scenario catalogue
# ----------------------------------------------------------------------
def fault_trace_loss(
    *, intensity: float = 0.6, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Trace-event loss: the download path drops events at random."""

    def arm(rt, harness: FaultHarness) -> None:
        """Attach the drop-only tamper stage to the runtime's tracer."""
        harness.add(
            TraceTamper(drop=FaultPlan.burst(FAULT_START, FAULT_END, intensity), seed=seed)
        ).arm(rt.tracer)

    return _playback(
        "trace-loss", arm, intensity=intensity, n_frames=n_frames, seed=seed, hardened=hardened
    )


def fault_trace_jitter(
    *, intensity: float = 0.6, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Timestamp jitter + duplication: a corrupted clocksource."""

    def arm(rt, harness: FaultHarness) -> None:
        """Attach the jitter + duplication tamper stage to the tracer."""
        harness.add(
            TraceTamper(
                jitter=FaultPlan.burst(FAULT_START, FAULT_END, intensity),
                duplicate=FaultPlan.burst(FAULT_START, FAULT_END, intensity / 2),
                seed=seed,
            )
        ).arm(rt.tracer)

    return _playback(
        "trace-jitter", arm, intensity=intensity, n_frames=n_frames, seed=seed, hardened=hardened
    )


def fault_ring_overrun(
    *,
    intensity: float = 0.9,
    n_frames: int = 300,
    seed: int = 13,
    hardened: bool = True,
    mode: str = "stall",
    ring_capacity: int = 1024,
) -> FaultRun:
    """Ring-overrun pressure: stall the download or shrink the buffer.

    Runs with a §4.1-representative kernel ring (``ring_capacity``
    events, not the simulator's generous default) so that an 8 s stall
    actually wraps the buffer and the loss becomes visible through
    :meth:`repro.tracer.qtrace.QTracer.overruns`.
    """

    def arm(rt, harness: FaultHarness) -> None:
        """Put the ring buffer under overrun pressure."""
        harness.add(
            RingPressure(
                FaultPlan.burst(FAULT_START, FAULT_END, intensity), mode=mode, seed=seed
            )
        ).arm(rt.tracer, rt.kernel)

    return _playback(
        "ring-overrun",
        arm,
        intensity=intensity,
        n_frames=n_frames,
        seed=seed,
        hardened=hardened,
        ring_capacity=ring_capacity,
    )


def fault_clock_coarse(
    *, intensity: float = 0.8, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Clock coarsening: timestamps quantised to a jiffy-class grid."""

    def arm(rt, harness: FaultHarness) -> None:
        """Attach the timestamp-quantisation stage to the tracer."""
        harness.add(
            ClockCoarsening(FaultPlan.burst(FAULT_START, FAULT_END, intensity), seed=seed)
        ).arm(rt.tracer)

    return _playback(
        "clock-coarse", arm, intensity=intensity, n_frames=n_frames, seed=seed, hardened=hardened
    )


def fault_overload(
    *, intensity: float = 0.5, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Workload overload burst: decode costs inflate mid-playback."""

    def wrap(harness: FaultHarness, program):
        """Wrap the player's program with compute-cost inflation."""
        injector = harness.add(
            WorkloadFaults(
                overload=FaultPlan.burst(FAULT_START, FAULT_END, intensity),
                compute_factor=1.5,
                seed=seed,
            )
        )
        return injector.wrap(program)

    return _playback(
        "overload",
        lambda rt, harness: None,
        intensity=intensity,
        n_frames=n_frames,
        seed=seed,
        hardened=hardened,
        wrap_program=wrap,
    )


def fault_mode_switch(
    *, intensity: float = 0.8, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Workload mode switch: the activation period stretches mid-run."""

    def wrap(harness: FaultHarness, program):
        """Wrap the player's program with period stretching."""
        injector = harness.add(
            WorkloadFaults(
                mode_switch=FaultPlan.burst(FAULT_START, FAULT_END, intensity),
                period_factor=0.5,
                seed=seed,
            )
        )
        return injector.wrap(program)

    return _playback(
        "mode-switch",
        lambda rt, harness: None,
        intensity=intensity,
        n_frames=n_frames,
        seed=seed,
        hardened=hardened,
        wrap_program=wrap,
    )


def fault_saturation(
    *, intensity: float = 1.0, n_frames: int = 300, seed: int = 13, hardened: bool = True
) -> FaultRun:
    """Supervisor saturation: bandwidth hogs force Eq. 1 compression."""

    def arm(rt, harness: FaultHarness) -> None:
        """Register phantom bandwidth hogs with the supervisor."""
        harness.add(
            SupervisorSaturation(
                FaultPlan.burst(FAULT_START, FAULT_END, intensity), bandwidth=1.0, seed=seed
            )
        ).arm(rt.supervisor, rt.kernel)

    return _playback(
        "saturation",
        arm,
        intensity=intensity,
        n_frames=n_frames,
        seed=seed,
        hardened=hardened,
        u_min=0.15,
        watchdog=True,
    )


#: name -> scenario callable (kwargs are CLI overrides)
FAULT_SCENARIOS: dict[str, Callable[..., FaultRun]] = {
    "trace-loss": fault_trace_loss,
    "trace-jitter": fault_trace_jitter,
    "ring-overrun": fault_ring_overrun,
    "clock-coarse": fault_clock_coarse,
    "overload": fault_overload,
    "mode-switch": fault_mode_switch,
    "saturation": fault_saturation,
}
