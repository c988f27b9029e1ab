"""The scalar §4.3.1 heuristic, kept as an oracle for the vectorised one.

This is :meth:`repro.core.peaks.PeakDetector.detect` as it was written
before its harmonic accumulation was vectorised: one Python loop per
candidate and per harmonic, one slice sum per window.  The vectorised
detector must return the same :class:`PeakResult`, bit for bit.
"""

import numpy as np

from repro.core.peaks import PeakConfig, PeakResult, local_maxima


def scalar_detect(config: PeakConfig, freqs, amplitude) -> PeakResult:
    """Detect the fundamental frequency, one window at a time."""
    freqs = np.asarray(freqs, dtype=np.float64)
    amp = np.asarray(amplitude, dtype=np.float64)
    if freqs.size != amp.size:
        raise ValueError(f"freqs ({freqs.size}) and amplitude ({amp.size}) disagree")
    if freqs.size == 0 or not np.any(amp > 0):
        return PeakResult(frequency=None)

    examined = freqs.size
    maxima = local_maxima(amp)
    reference = float(amp.max() if config.alpha_ref == "max" else amp.mean())
    threshold = config.alpha * reference
    last = freqs.size - 1
    candidates = [int(i) for i in maxima if 0 < i < last and amp[i] >= threshold and amp[i] > 0]
    if not candidates:
        return PeakResult(frequency=None, elements_examined=examined)

    df = float(freqs[1] - freqs[0]) if freqs.size > 1 else 1.0
    f_max = float(freqs[-1])
    f_min = float(freqs[0])
    eps = config.epsilon
    sums: list[float] = []
    for idx in candidates:
        f_i = float(freqs[idx])
        total = 0.0
        harmonics = min(int(f_max / f_i), config.k_max)
        for h in range(1, harmonics + 1):
            lo = h * f_i - eps
            hi = h * f_i + eps
            i0 = max(0, int(np.ceil((lo - f_min) / df)))
            i1 = min(freqs.size - 1, int(np.floor((hi - f_min) / df)))
            if i1 >= i0:
                total += float(amp[i0 : i1 + 1].sum())
                examined += i1 - i0 + 1
        sums.append(total)

    best = int(np.argmax(sums))
    return PeakResult(
        frequency=float(freqs[candidates[best]]),
        candidates=[float(freqs[i]) for i in candidates],
        harmonic_sums=sums,
        elements_examined=examined,
        peak_amplitude=float(amp[candidates[best]]),
        mean_amplitude=float(amp.mean()),
    )


def result_key(result: PeakResult) -> tuple:
    """Every field of ``result``, floats as ``float.hex`` (exact)."""
    return (
        None if result.frequency is None else result.frequency.hex(),
        [f.hex() for f in result.candidates],
        [s.hex() for s in result.harmonic_sums],
        result.elements_examined,
        result.peak_amplitude.hex(),
        result.mean_amplitude.hex(),
    )
