"""Tests for the §4.3.1 peak-detection heuristic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peaks import PeakConfig, PeakDetector, expected_elements, local_maxima
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.sim.time import MS, SEC
from tests.core.reference_detect import result_key, scalar_detect


def train_spectrum(period_ns, n_events, cfg, jitter_ns=0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.array(
        [j * period_ns + (rng.integers(-jitter_ns, jitter_ns + 1) if jitter_ns else 0) for j in range(n_events)]
    )
    return cfg.frequencies(), sparse_amplitude_spectrum(times, cfg)


class TestLocalMaxima:
    def test_interior_maximum(self):
        assert list(local_maxima(np.array([1, 3, 2]))) == [1]

    def test_boundaries(self):
        assert list(local_maxima(np.array([5, 1, 9]))) == [0, 2]

    def test_plateau_counts_once(self):
        assert list(local_maxima(np.array([1, 4, 4, 1]))) == [1]

    def test_monotone_rising(self):
        assert list(local_maxima(np.array([1, 2, 3]))) == [2]

    def test_empty_and_single(self):
        assert list(local_maxima(np.array([]))) == []
        assert list(local_maxima(np.array([7.0]))) == [0]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"alpha": -0.1}, {"epsilon": -1.0}, {"k_max": 0}, {"alpha_ref": "median"}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PeakConfig(**kwargs)


class TestDetection:
    CFG = SpectrumConfig(f_min=10.0, f_max=100.0, df=0.1)

    def test_clean_train_detected_exactly(self):
        freqs, amp = train_spectrum(40 * MS, 60, self.CFG)  # 25 Hz
        result = PeakDetector().detect(freqs, amp)
        assert result.frequency == pytest.approx(25.0, abs=0.1)
        assert result.periodic

    def test_jittered_train_detected(self):
        freqs, amp = train_spectrum(40 * MS, 60, self.CFG, jitter_ns=2 * MS, seed=3)
        result = PeakDetector().detect(freqs, amp)
        assert result.frequency == pytest.approx(25.0, abs=0.3)

    def test_white_noise_not_strongly_periodic(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.integers(0, 2 * SEC, size=300))
        freqs = self.CFG.frequencies()
        amp = sparse_amplitude_spectrum(times, self.CFG)
        result = PeakDetector(PeakConfig(alpha=0.9, alpha_ref="max")).detect(freqs, amp)
        # with a hard threshold most noise candidates are cut; whatever
        # remains collects no harmonic support worth the name
        if result.frequency is not None:
            assert result.harmonic_sums  # still produced diagnostics

    def test_all_zero_spectrum_is_non_periodic(self):
        freqs = self.CFG.frequencies()
        result = PeakDetector().detect(freqs, np.zeros_like(freqs))
        assert not result.periodic

    def test_empty_input(self):
        result = PeakDetector().detect(np.array([]), np.array([]))
        assert result.frequency is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PeakDetector().detect(np.array([1.0, 2.0]), np.array([1.0]))

    def test_harmonic_sum_prefers_fundamental_over_harmonic(self):
        # strong lines at 25 and 50; candidate 25 collects both
        freqs = self.CFG.frequencies()
        amp = np.ones_like(freqs)
        for f0 in (25.0, 50.0, 75.0, 100.0):
            amp[int(round((f0 - 10.0) / 0.1))] = 100.0
        result = PeakDetector().detect(freqs, amp)
        assert result.frequency == pytest.approx(25.0, abs=0.1)

    def test_candidates_reported_sorted_by_frequency(self):
        freqs, amp = train_spectrum(40 * MS, 60, self.CFG)
        result = PeakDetector().detect(freqs, amp)
        assert result.candidates == sorted(result.candidates)

    def test_alpha_max_prunes_candidates(self):
        freqs, amp = train_spectrum(40 * MS, 60, self.CFG, jitter_ns=1 * MS, seed=9)
        loose = PeakDetector(PeakConfig(alpha=0.0)).detect(freqs, amp)
        tight = PeakDetector(PeakConfig(alpha=0.5, alpha_ref="max")).detect(freqs, amp)
        assert len(tight.candidates) < len(loose.candidates)
        assert tight.frequency == pytest.approx(25.0, abs=0.2)

    def test_elements_examined_grows_with_epsilon(self):
        freqs, amp = train_spectrum(40 * MS, 60, self.CFG, jitter_ns=1 * MS, seed=9)
        small = PeakDetector(PeakConfig(epsilon=0.1)).detect(freqs, amp)
        large = PeakDetector(PeakConfig(epsilon=1.0)).detect(freqs, amp)
        assert large.elements_examined > small.elements_examined

    def test_k_max_caps_harmonic_accumulation(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=100.0, df=0.1)
        freqs, amp = train_spectrum(500 * MS, 30, cfg)  # 2 Hz: 50 harmonics in band
        capped = PeakDetector(PeakConfig(k_max=10)).detect(freqs, amp)
        uncapped = PeakDetector(PeakConfig(k_max=50)).detect(freqs, amp)
        assert uncapped.elements_examined > capped.elements_examined


class TestExpectedElements:
    def test_eq5_structure(self):
        # base scan + per-candidate harmonic windows
        e = expected_elements(0.0, 100.0, 0.1, [25.0], 0.5, k_max=10)
        base = 1000
        harmonics = int(min((100 - 25) / 25, 10) * (0.5 / 0.1))
        assert e == base + harmonics

    def test_zero_candidates(self):
        assert expected_elements(0.0, 100.0, 0.1, [], 0.5) == 1000


class TestRecoveryProperty:
    @settings(max_examples=15, deadline=None)
    @given(freq=st.floats(min_value=12.0, max_value=48.0))
    def test_detects_arbitrary_fundamentals(self, freq):
        """Detection succeeds whenever the band excludes sub-multiples of
        the fundamental (f_min > f0/2) — the configuration rule the
        paper's own 30-100 Hz scans follow."""
        period = int(round(SEC / freq))
        f0 = SEC / period
        cfg = SpectrumConfig(f_min=f0 * 0.6, f_max=100.0, df=0.1)
        freqs, amp = train_spectrum(period, 70, cfg)
        result = PeakDetector().detect(freqs, amp)
        assert result.frequency is not None
        assert abs(result.frequency - f0) < 0.25

    def test_subharmonic_ambiguity_when_band_too_wide(self):
        """The documented limitation: with f0/4 inside the band, the
        sub-multiple candidate collects the true lines and wins."""
        cfg = SpectrumConfig(f_min=10.0, f_max=100.0, df=0.1)
        freqs, amp = train_spectrum(25 * MS, 70, cfg)  # f0 = 40 Hz
        result = PeakDetector().detect(freqs, amp)
        assert result.frequency is not None
        # the detected value divides the fundamental (10, 13.3, 20 or 40)
        ratio = 40.0 / result.frequency
        assert abs(ratio - round(ratio)) < 0.05


@st.composite
def grids(draw):
    """Uniform SpectrumConfig grids, down to one and two samples."""
    n = draw(st.sampled_from([1, 2, 3, 4]) | st.integers(min_value=5, max_value=600))
    df = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0, 3.5]))
    f_min = draw(st.sampled_from([0.0, 0.5, 10.0]) | st.floats(min_value=0.0, max_value=60.0))
    if n == 1:
        cfg = SpectrumConfig(f_min=f_min, f_max=f_min + df / 4, df=df)
    else:
        cfg = SpectrumConfig(f_min=f_min, f_max=f_min + (n - 1) * df, df=df)
    return cfg


@st.composite
def spectra(draw, cfg):
    freqs = cfg.frequencies()
    kind = draw(st.sampled_from(["zeros", "random", "ties", "edges", "train"]))
    if kind == "zeros":
        return np.zeros(freqs.size)
    if kind == "train":
        period_ms = draw(st.integers(min_value=5, max_value=200))
        n = draw(st.integers(min_value=1, max_value=80))
        return sparse_amplitude_spectrum(np.arange(n, dtype=np.int64) * period_ms * MS, cfg)
    values = st.floats(min_value=0.0, max_value=50.0)
    if kind == "ties":  # plateaus and exact ties between windows
        values = st.integers(min_value=0, max_value=3).map(float)
    amp = np.array(draw(st.lists(values, min_size=freqs.size, max_size=freqs.size)))
    if kind == "edges" and freqs.size >= 3:  # maxima right next to both band edges
        amp[1] = amp[-2] = amp.max() + 1.0
    return amp


class TestVectorisedMatchesScalar:
    """The vectorised harmonic accumulation returns exactly the scalar
    loop's result: candidates, harmonic sums (as ``float.hex``), Eq. 5
    cost and amplitudes."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid=grids(),
        data=st.data(),
        alpha=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(min_value=0.0, max_value=2.0),
        epsilon=st.sampled_from([0.0, 0.05, 0.5, 7.0]) | st.floats(min_value=0.0, max_value=20.0),
        k_max=st.sampled_from([1, 10]) | st.integers(min_value=1, max_value=60),
        alpha_ref=st.sampled_from(["mean", "max"]),
    )
    def test_detect_matches_scalar_reference(self, grid, data, alpha, epsilon, k_max, alpha_ref):
        freqs = grid.frequencies()
        amp = data.draw(spectra(grid))
        config = PeakConfig(alpha=alpha, epsilon=epsilon, k_max=k_max, alpha_ref=alpha_ref)
        got = PeakDetector(config).detect(freqs, amp)
        assert result_key(got) == result_key(scalar_detect(config, freqs, amp))

    def test_windows_clipped_at_both_band_edges(self):
        # candidates at the first and last eligible bins; ε wide enough that
        # the first harmonic window of each runs past an edge of the grid
        freqs = SpectrumConfig(f_min=10.0, f_max=40.0, df=0.5).frequencies()
        amp = np.ones_like(freqs)
        amp[1] = amp[-2] = 9.0
        config = PeakConfig(alpha=1.5, epsilon=3.0, k_max=4)
        got = PeakDetector(config).detect(freqs, amp)
        assert got.candidates == [10.5, 39.5]
        assert result_key(got) == result_key(scalar_detect(config, freqs, amp))
