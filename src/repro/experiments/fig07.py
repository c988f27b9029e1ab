"""Figure 7: spectrum-computation cost and precision vs H and f_max.

At fixed δf = 0.5 Hz the scan ceiling f_max sweeps {100, 200, 300, 400}
Hz.  Cost grows linearly with f_max (more frequency samples); precision
*degrades* with f_max because a wider band admits more spurious
high-order candidates — the paper's reason for keeping the band tight.
"""

from __future__ import annotations

import time

from repro.core.peaks import PeakDetector
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.fig06 import collect_traces, window
from repro.sim.time import SEC

#: wall-clock columns that legitimately differ between two runs
TIMING_COLUMNS = ("transform_ms", "transform_ms_std")


def run(
    *,
    reps: int = 10,
    df: float = 0.5,
    fmax_values: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0),
    horizons_s: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    map_fn=map,
) -> ExperimentResult:
    """Sweep (H, f_max) and measure transform time + detected frequency.

    ``map_fn`` shards trace collection across workers (see fig06); the
    timed transforms stay serial.
    """
    result = ExperimentResult(
        experiment="fig07",
        title="Spectrum computation time and detection precision vs H and fmax (df=0.5Hz)",
    )
    duration = int(max(horizons_s) * SEC) + SEC
    # lightly loaded traces so the wider band has spurious peaks to find
    traces = collect_traces(reps, duration, seed0=700, clean=False, map_fn=map_fn)
    detector = PeakDetector()

    for f_max in fmax_values:
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
                fmax_hz=f_max,
                horizon_s=h_s,
                transform_ms=t_mean,
                transform_ms_std=t_std,
                detected_hz=f_mean,
                detected_hz_std=f_std,
            )
    result.notes.append(
        "cost grows ~ linearly with fmax; variability of the detected "
        "frequency generally grows with fmax"
    )
    return result
