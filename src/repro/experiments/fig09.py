"""Figure 9: detected-frequency average and std dev vs ε and H.

The harmonic tolerance ε has a sweet spot: tiny ε misses slightly
misplaced harmonics (higher variance), moderate ε (≈0.5) credits them to
the right fundamental (lowest variance), and large ε blurs adjacent
frequencies together (variance grows again).  Longer horizons always
help.  The traces carry light background interference so the effect has
something to bite on.
"""

from __future__ import annotations

from repro.core.peaks import PeakConfig, PeakDetector
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.fig06 import collect_traces, window
from repro.sim.time import SEC


def run(
    *,
    reps: int = 20,
    epsilons: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    horizons_s: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    alpha: float = 0.2,
) -> ExperimentResult:
    """Sweep (ε, H) and record detected-frequency statistics."""
    result = ExperimentResult(
        experiment="fig09",
        title="Detected frequency (avg, std) vs ε and H",
    )
    duration = int(max(horizons_s) * SEC) + SEC
    traces = collect_traces(reps, duration, seed0=900, clean=False)
    config = SpectrumConfig(f_min=30.0, f_max=100.0, df=0.1)
    freqs = config.frequencies()

    spectra: dict[float, list] = {}
    for h_s in horizons_s:
        h_ns = int(h_s * SEC)
        spectra[h_s] = [
            sparse_amplitude_spectrum(window(t, h_ns, duration), config) for t in traces
        ]

    for eps in epsilons:
        detector = PeakDetector(PeakConfig(alpha=alpha, epsilon=eps))
        for h_s in horizons_s:
            detections = []
            for amp in spectra[h_s]:
                found = detector.detect(freqs, amp)
                if found.frequency is not None:
                    detections.append(found.frequency)
            f_mean, f_std = mean_std(detections)
            result.add_row(
                epsilon=eps,
                horizon_s=h_s,
                detected_hz=f_mean,
                detected_hz_std=f_std,
                detections=len(detections),
            )
    return result
