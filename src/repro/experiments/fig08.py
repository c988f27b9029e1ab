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

    # the α cells of one (ε, H) are timed alternately on the same
    # spectrum, one call each in turn and the first place alternating per
    # rep, so host drift hits them alike; rows still come out α-major
    cells = [(a, eps, h_s) for a in range(len(alphas)) for eps in epsilons for h_s in horizons_s]
    times_us: dict[tuple, list[float]] = {cell: [] for cell in cells}
    elements: dict[tuple, list[int]] = {cell: [] for cell in cells}
    for eps in epsilons:
        # α is applied relative to the spectrum maximum here: that is
        # the variant that prunes noise-floor ripples and reproduces
        # the several-fold cost reduction between the two Fig. 8 plots
        detectors = [
            (a, PeakDetector(PeakConfig(alpha=alpha, epsilon=eps, alpha_ref="max")))
            for a, alpha in enumerate(alphas)
        ]
        for h_s in horizons_s:
            for amp in spectra[h_s]:
                spent = [0.0] * len(alphas)
                examined = [0] * len(alphas)
                for rep in range(detect_reps):
                    for a, detector in detectors if rep % 2 == 0 else detectors[::-1]:
                        t0 = time.perf_counter()
                        found = detector.detect(freqs, amp)
                        spent[a] += time.perf_counter() - t0
                        examined[a] = found.elements_examined
                for a, _ in detectors:
                    times_us[a, eps, h_s].append(spent[a] / detect_reps * 1e6)
                    elements[a, eps, h_s].append(examined[a])
    for a, eps, h_s in cells:
        t_mean, t_std = mean_std(times_us[a, eps, h_s])
        result.add_row(
            alpha=alphas[a],
            epsilon=eps,
            horizon_s=h_s,
            detect_us=t_mean,
            detect_us_std=t_std,
            elements_examined=int(sum(elements[a, eps, h_s]) / len(elements[a, eps, h_s])),
        )
    result.notes.append(
        "elements_examined is the Eq. 5 cost metric; wall time should track it"
    )
    return result
