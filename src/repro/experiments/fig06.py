"""Figure 6: spectrum-computation cost and precision vs H and δf.

At fixed f_max = 100 Hz the observation horizon H sweeps 0.5-2 s and the
frequency step δf sweeps {0.1, 0.2, 0.5} Hz.  For every combination we
measure (a) the wall-clock time to compute the transform — expected to
scale like Eq. 3, i.e. proportional to the event count (∝ H) and to the
number of frequency samples (∝ 1/δf) — and (b) the detected frequency's
mean and standard deviation over repeated traces.

Absolute milliseconds differ from the paper's 2.6 GHz laptop; the scaling
law and the insensitivity of precision to δf are the reproduced claims.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.peaks import PeakDetector
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.common import build_mp3_scenario, trace_mp3
from repro.sim.time import SEC


#: wall-clock columns that legitimately differ between two runs
TIMING_COLUMNS = ("transform_ms", "transform_ms_std")


# repro: allow[CC001]  -- reaches the idempotent cycle-adapter registry; deterministic per process
def _record_trace(seed: int, duration_ns: int, clean: bool) -> np.ndarray:
    """One independent mp3 event trace (a parallelisable work unit)."""
    scenario = build_mp3_scenario(
        seed=seed,
        n_frames=int(duration_ns / SEC * 33) + 10,
        with_desktop=not clean,
        with_disk=not clean,
    )
    return np.array(trace_mp3(scenario, duration_ns), dtype=np.int64)


def collect_traces(
    reps: int, duration_ns: int, *, seed0: int = 600, clean: bool = True, map_fn=map
):
    """Record ``reps`` independent mp3 event traces.

    Each trace is seeded ``seed0 + r`` from its repetition index alone, so
    any order-preserving ``map_fn`` (the builtin, or a process-pool map
    injected by :mod:`repro.experiments.runner`) yields the same traces.
    """
    return list(
        map_fn(
            _record_trace,
            [seed0 + r for r in range(reps)],
            [duration_ns] * reps,
            [clean] * reps,
        )
    )


def window(trace: np.ndarray, horizon_ns: int, end_ns: int) -> np.ndarray:
    """The slice of ``trace`` inside the window ``[end - horizon, end)``."""
    return trace[(trace >= end_ns - horizon_ns) & (trace < end_ns)]


def run(
    *,
    reps: int = 10,
    f_max: float = 100.0,
    df_values: tuple[float, ...] = (0.1, 0.2, 0.5),
    horizons_s: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    epsilon: float = 0.5,
    map_fn=map,
) -> ExperimentResult:
    """Sweep (H, δf) and measure transform time + detected frequency.

    ``map_fn`` shards trace collection (the expensive simulation part);
    the timed spectrum transforms stay serial so the measured wall-clock
    costs are not perturbed by sibling workers.
    """
    result = ExperimentResult(
        experiment="fig06",
        title="Spectrum computation time and detection precision vs H and δf (fmax=100Hz)",
    )
    duration = int(max(horizons_s) * SEC) + SEC
    traces = collect_traces(reps, duration, map_fn=map_fn)
    detector = PeakDetector()

    for df in df_values:
        config = SpectrumConfig(f_min=30.0, f_max=f_max, df=df)
        freqs = config.frequencies()
        for h_s in horizons_s:
            h_ns = int(h_s * SEC)
            times_ms: list[float] = []
            detections: list[float] = []
            for trace in traces:
                w = window(trace, h_ns, duration)
                t0 = time.perf_counter()
                amp = sparse_amplitude_spectrum(w, config)
                times_ms.append((time.perf_counter() - t0) * 1e3)
                found = detector.detect(freqs, amp)
                if found.frequency is not None:
                    detections.append(found.frequency)
            t_mean, t_std = mean_std(times_ms)
            f_mean, f_std = mean_std(detections)
            result.add_row(
                df_hz=df,
                horizon_s=h_s,
                n_events=int(np.mean([window(t, h_ns, duration).size for t in traces])),
                transform_ms=t_mean,
                transform_ms_std=t_std,
                detected_hz=f_mean,
                detected_hz_std=f_std,
            )
    result.notes.append(
        "transform time should scale ~ (events in window) x (f_max-f_min)/df; "
        "detected frequency should sit at 32.5 Hz regardless of df"
    )
    return result
