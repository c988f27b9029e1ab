"""Figure 8: peak-detection heuristic cost vs ε and H.

The heuristic's cost (Eq. 5) is measured as wall-clock time over the
already-computed spectrum, sweeping the harmonic tolerance ε ∈ [0.1, 1.0]
and the horizon H ∈ {0.5, 1, 1.5, 2} s, both with the α threshold
disabled (α = 0: every local maximum is a candidate — the paper's top
plot) and with α = 20% (bottom plot).

Expected shape: cost roughly linear in ε and in H; the α threshold cuts
it by several times by pruning candidates early.
"""

from __future__ import annotations

import time

from repro.core.peaks import PeakConfig, PeakDetector
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.fig06 import collect_traces, window
from repro.sim.time import SEC

#: wall-clock columns that legitimately differ between two runs
TIMING_COLUMNS = ("detect_us", "detect_us_std")


def run(
    *,
    reps: int = 10,
    epsilons: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    horizons_s: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    alphas: tuple[float, ...] = (0.0, 0.2),
    detect_reps: int = 5,
) -> ExperimentResult:
    """Sweep (ε, H, α) and time the heuristic on precomputed spectra."""
    result = ExperimentResult(
        experiment="fig08",
        title="Peak-detection overhead vs ε and H, without/with the α threshold",
    )
    duration = int(max(horizons_s) * SEC) + SEC
    traces = collect_traces(reps, duration, seed0=800, clean=False)
    config = SpectrumConfig(f_min=30.0, f_max=100.0, df=0.1)
    freqs = config.frequencies()

    # precompute spectra once per (trace, H)
    spectra: dict[float, list] = {}
    for h_s in horizons_s:
        h_ns = int(h_s * SEC)
        spectra[h_s] = [
            sparse_amplitude_spectrum(window(t, h_ns, duration), config) for t in traces
        ]

    for alpha in alphas:
        for eps in epsilons:
            # α is applied relative to the spectrum maximum here: that is
            # the variant that prunes noise-floor ripples and reproduces
            # the several-fold cost reduction between the two Fig. 8 plots
            detector = PeakDetector(PeakConfig(alpha=alpha, epsilon=eps, alpha_ref="max"))
            for h_s in horizons_s:
                times_us: list[float] = []
                elements: list[int] = []
                for amp in spectra[h_s]:
                    t0 = time.perf_counter()
                    for _ in range(detect_reps):
                        found = detector.detect(freqs, amp)
                    times_us.append((time.perf_counter() - t0) / detect_reps * 1e6)
                    elements.append(found.elements_examined)
                t_mean, t_std = mean_std(times_us)
                result.add_row(
                    alpha=alpha,
                    epsilon=eps,
                    horizon_s=h_s,
                    detect_us=t_mean,
                    detect_us_std=t_std,
                    elements_examined=int(sum(elements) / len(elements)),
                )
    result.notes.append(
        "elements_examined is the Eq. 5 cost metric; wall time should track it"
    )
    return result
