"""Peak-detection heuristic (§4.3.1).

Given the sampled amplitude spectrum, the heuristic recovers the
fundamental frequency of the event train:

1. find the local maxima of ``|S(f)|`` over the range (candidate peaks);
2. discard candidates with amplitude below ``α`` times the average
   spectrum amplitude;
3. if nothing survives, declare the signal **non-periodic**;
4. for each surviving candidate ``f_i``, accumulate the spectrum amplitude
   around at most ``k_max`` integer multiples ``h·f_i`` with a tolerance of
   ``ε`` (so slightly misplaced harmonics still vote for their
   fundamental);
5. pick the candidate with the largest harmonic sum ``Σ_i``.

Step 4 is what makes the heuristic robust: a true fundamental collects the
energy of *all* its harmonics, while a spurious secondary peak collects
little.  The ``k_max`` cap "prevents secondary peaks from outweighing the
main one due to their high number".

:attr:`PeakResult.elements_examined` reproduces the Eq. 5 cost metric
(number of spectrum samples the heuristic touches), used by Figure 8.

Known limitation (inherent to the paper's heuristic): if the scanned band
includes sub-multiples of the true fundamental, a spurious candidate near
``f0/k`` collects the *true* harmonic lines as its own multiples and can
out-vote the fundamental.  The practical cure — visible in the paper's own
experiments, whose mp3 scans start at 30 Hz for a 32.5 Hz fundamental — is
to choose ``f_min`` above half the lowest plausible rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PeakConfig:
    """Heuristic parameters; defaults follow the paper's experiments."""

    #: amplitude threshold as a fraction of the reference amplitude
    alpha: float = 0.2
    #: harmonic-matching tolerance, Hz
    epsilon: float = 0.5
    #: maximum number of integer multiples accumulated per candidate
    k_max: int = 10
    #: what α is relative to: ``"mean"`` (the paper's wording — "α times
    #: its average value") or ``"max"`` (a harder cut that prunes the
    #: noise-floor ripples and reproduces the several-fold overhead
    #: reduction of Figure 8)
    alpha_ref: str = "mean"

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.alpha_ref not in ("mean", "max"):
            raise ValueError(f"alpha_ref must be 'mean' or 'max', got {self.alpha_ref}")


@dataclass
class PeakResult:
    """Outcome of one detection pass."""

    #: detected fundamental frequency (Hz), or None if non-periodic
    frequency: float | None
    #: all candidate peak frequencies that survived the α threshold
    candidates: list[float] = field(default_factory=list)
    #: harmonic sums Σ_i, parallel to :attr:`candidates`
    harmonic_sums: list[float] = field(default_factory=list)
    #: Eq. 5 cost: spectrum samples examined by the pass
    elements_examined: int = 0
    #: amplitude of the winning peak and the spectrum's mean amplitude
    peak_amplitude: float = 0.0
    mean_amplitude: float = 0.0

    @property
    def periodic(self) -> bool:
        """Whether a periodic structure was found."""
        return self.frequency is not None

    @property
    def peak_to_mean(self) -> float:
        """Prominence of the winning peak over the spectrum mean.

        A genuinely periodic train scores several times the mean; the
        ripples of a dense aperiodic train barely exceed it.  Useful as a
        confidence gate on top of the paper's heuristic (see
        :class:`repro.core.daemon.SelfTuningDaemon`).
        """
        return self.peak_amplitude / self.mean_amplitude if self.mean_amplitude > 0 else 0.0


def local_maxima(amplitude: np.ndarray) -> np.ndarray:
    """Indices of strict-rise / non-strict-fall local maxima.

    A plateau counts once, at its left edge.  Boundary samples qualify if
    they dominate their single neighbour.
    """
    amp = np.asarray(amplitude, dtype=np.float64)
    n = amp.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if n == 1:
        return np.array([0], dtype=np.intp)
    rises = np.empty(n, dtype=bool)
    rises[0] = True
    rises[1:] = amp[1:] > amp[:-1]
    falls = np.empty(n, dtype=bool)
    falls[-1] = True
    falls[:-1] = amp[:-1] >= amp[1:]
    return np.nonzero(rises & falls)[0]


class PeakDetector:
    """Runs the §4.3.1 heuristic on a sampled amplitude spectrum."""

    #: most samples gathered into one block of harmonic windows
    _GATHER_LIMIT = 1 << 16

    def __init__(self, config: PeakConfig | None = None) -> None:
        self.config = config or PeakConfig()

    def detect(self, freqs: np.ndarray, amplitude: np.ndarray) -> PeakResult:
        """Detect the fundamental frequency.

        ``freqs`` (Hz) and ``amplitude`` are parallel arrays (a uniform
        grid, as produced by :class:`repro.core.spectrum.Spectrum`).
        """
        freqs = np.asarray(freqs, dtype=np.float64)
        amp = np.asarray(amplitude, dtype=np.float64)
        if freqs.size != amp.size:
            raise ValueError(f"freqs ({freqs.size}) and amplitude ({amp.size}) disagree")
        if freqs.size == 0 or not np.any(amp > 0):
            return PeakResult(frequency=None)

        # steps 1-3: candidate peaks above the α threshold.  Band-edge
        # bins are not eligible: the DC lobe of any finite observation
        # decays *into* the band, so the first bin would otherwise always
        # qualify and nominate f_min for dense aperiodic event trains.
        examined = freqs.size  # the scan over all samples
        maxima = local_maxima(amp)
        reference = float(amp.max() if self.config.alpha_ref == "max" else amp.mean())
        threshold = self.config.alpha * reference
        maxima = maxima[(maxima > 0) & (maxima < freqs.size - 1)]
        peak_amp = amp[maxima]
        candidates = maxima[(peak_amp >= threshold) & (peak_amp > 0)]
        if not candidates.size:
            return PeakResult(frequency=None, elements_examined=examined)

        f_cand = freqs[candidates]
        sums, window_elements = self._harmonic_sums(freqs, amp, f_cand)
        best = int(np.argmax(sums))
        return PeakResult(
            frequency=float(f_cand[best]),
            candidates=f_cand.tolist(),
            harmonic_sums=sums.tolist(),
            elements_examined=examined + window_elements,
            peak_amplitude=float(amp[candidates[best]]),
            mean_amplitude=float(amp.mean()),
        )

    def _harmonic_sums(
        self, freqs: np.ndarray, amp: np.ndarray, f_cand: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Steps 4-5: each candidate's harmonic sum Σ_i, and the samples read.

        For candidate ``f_i`` and each multiple ``h <= min(f_max/f_i,
        k_max)``, sum the samples in ``[h·f_i - ε, h·f_i + ε]``.  All
        (candidate, h) windows are handled at once: windows of one width
        are gathered into a 2-D block and summed row-wise, which rounds
        exactly like summing each window's slice on its own, and each
        candidate then adds its window sums in harmonic order.
        """
        n = freqs.size
        df = float(freqs[1] - freqs[0])
        f_min, f_max = float(freqs[0]), float(freqs[-1])
        eps = self.config.epsilon
        n_harm = np.trunc(np.clip(f_max / f_cand, 0, self.config.k_max)).astype(np.intp)
        cand = np.repeat(np.arange(f_cand.size), n_harm)
        h = np.arange(n_harm.sum()) - np.repeat(np.cumsum(n_harm) - n_harm, n_harm) + 1
        centre = h * f_cand[cand]
        i0 = np.maximum(np.ceil((centre - eps - f_min) / df), 0).astype(np.intp)
        i1 = np.minimum(np.floor((centre + eps - f_min) / df), n - 1).astype(np.intp)
        width = np.maximum(i1 - i0 + 1, 0)  # 0: no sample inside the window
        window_sums = np.zeros((f_cand.size, int(n_harm.max(initial=0))))
        # the distinct widths; np.unique would import numpy.ma (~1 MB)
        for w in (np.flatnonzero(np.bincount(width)[1:]) + 1).tolist():
            sel = np.nonzero(width == w)[0]
            step = max(1, self._GATHER_LIMIT // w)  # bounds the block for wide windows
            for c0 in range(0, sel.size, step):
                chunk = sel[c0 : c0 + step]
                block = amp[i0[chunk, None] + np.arange(w)]
                window_sums[cand[chunk], h[chunk] - 1] = block.sum(axis=1)
        sums = np.zeros(f_cand.size)
        for column in window_sums.T:
            sums += column
        return sums, int(width.sum())


def expected_elements(
    f_min: float, f_max: float, df: float, candidate_freqs: list[float], epsilon: float, k_max: int = 10
) -> int:
    """The Eq. 5 bound on spectrum samples the heuristic examines.

    ``E = (f_max - f_min)/δf + Σ_i min((f_max - f_i)/f_i, k_max) · ε/δf``
    """
    base = int(round((f_max - f_min) / df))
    total = base
    for f_i in candidate_freqs:
        if f_i <= 0:
            continue
        n_harm = min((f_max - f_i) / f_i, float(k_max))
        total += int(max(0.0, n_harm) * (epsilon / df))
    return total
