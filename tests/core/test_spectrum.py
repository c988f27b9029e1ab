"""Tests for the sparse amplitude spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import spectrum as spectrum_module
from repro.core.spectrum import Spectrum, SpectrumConfig, expected_operations, sparse_amplitude_spectrum
from repro.sim.time import MS, SEC


class TestConfig:
    def test_frequency_grid(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=2.0, df=0.5)
        assert list(cfg.frequencies()) == [1.0, 1.5, 2.0]
        assert cfg.n_samples == 3

    @pytest.mark.parametrize("fmin,fmax,df", [(-1, 10, 0.1), (10, 5, 0.1), (1, 10, 0)])
    def test_invalid(self, fmin, fmax, df):
        with pytest.raises(ValueError):
            SpectrumConfig(f_min=fmin, f_max=fmax, df=df)


class TestOneShot:
    def test_empty_events_all_zero(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=2.0, df=1.0)
        assert np.all(sparse_amplitude_spectrum(np.array([]), cfg) == 0)

    def test_single_event_flat_spectrum(self):
        # one Dirac delta has |S(f)| = 1 at every frequency
        cfg = SpectrumConfig(f_min=1.0, f_max=100.0, df=99 / 199)
        amp = sparse_amplitude_spectrum(np.array([123456789]), cfg)
        assert amp.size == 200
        assert np.allclose(amp, 1.0)

    def test_n_coincident_events(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=50.0, df=49 / 99)
        amp = sparse_amplitude_spectrum(np.full(7, 10 * MS), cfg)
        assert np.allclose(amp, 7.0)

    def test_periodic_train_peaks_at_fundamental(self):
        period = 40 * MS  # 25 Hz
        times = np.arange(50, dtype=np.int64) * period
        cfg = SpectrumConfig(f_min=5.0, f_max=100.0, df=0.1)
        amp = sparse_amplitude_spectrum(times, cfg)
        for f0 in (25.0, 50.0, 75.0, 100.0):
            idx = int(round((f0 - 5.0) / 0.1))
            assert amp[idx] == pytest.approx(50.0, rel=1e-6), f0
        # off-harmonic amplitude is far below
        idx = int(round((37.0 - 5.0) / 0.1))
        assert amp[idx] < 10

    def test_linearity(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=20.0, df=19 / 39)
        a = np.array([1 * MS, 5 * MS, 9 * MS], dtype=np.int64)
        b = np.array([2 * MS, 7 * MS], dtype=np.int64)
        # amplitudes are not additive, but the underlying transform is:
        # verify via the parallelogram-ish bound |S_ab| <= |S_a| + |S_b|
        amp_ab = sparse_amplitude_spectrum(np.concatenate([a, b]), cfg)
        amp_a = sparse_amplitude_spectrum(a, cfg)
        amp_b = sparse_amplitude_spectrum(b, cfg)
        assert np.all(amp_ab <= amp_a + amp_b + 1e-9)

    def test_amplitude_bounded_by_event_count(self):
        rng = np.random.default_rng(1)
        times = rng.integers(0, 2 * SEC, size=100)
        cfg = SpectrumConfig(f_min=1.0, f_max=100.0, df=99 / 499)
        amp = sparse_amplitude_spectrum(times, cfg)
        assert np.all(amp <= 100.0 + 1e-9)


class TestIncremental:
    def test_matches_one_shot(self):
        cfg = SpectrumConfig(f_min=10.0, f_max=50.0, df=0.5)
        times = [3 * MS, 43 * MS, 83 * MS, 123 * MS]
        spec = Spectrum(cfg)
        spec.add_events(times)
        expected = sparse_amplitude_spectrum(np.array(times), cfg)
        assert np.allclose(spec.amplitude(), expected, atol=1e-6)

    def test_slide_retires_old_events_exactly(self):
        cfg = SpectrumConfig(f_min=10.0, f_max=50.0, df=0.5)
        spec = Spectrum(cfg, horizon_ns=100 * MS)
        spec.add_events([1 * MS, 50 * MS, 120 * MS, 180 * MS])
        retired = spec.slide_to(200 * MS)
        assert retired == 2
        expected = sparse_amplitude_spectrum(np.array([120 * MS, 180 * MS]), cfg)
        assert np.allclose(spec.amplitude(), expected, atol=1e-6)

    def test_slide_without_horizon_is_noop(self):
        spec = Spectrum(SpectrumConfig())
        spec.add_events([1 * MS])
        assert spec.slide_to(10 * SEC) == 0
        assert len(spec) == 1

    def test_reset(self):
        spec = Spectrum(SpectrumConfig())
        spec.add_events([1 * MS, 2 * MS])
        spec.reset()
        assert len(spec) == 0
        assert np.all(spec.amplitude() == 0)

    def test_operation_count_tracks_eq3(self):
        cfg = SpectrumConfig(f_min=1.0, f_max=10.0, df=1.0)
        spec = Spectrum(cfg)
        spec.add_events([1, 2, 3])
        assert spec.operations == 3 * cfg.n_samples
        assert expected_operations(cfg, 3) == spec.operations

    def test_normalized_amplitude_peaks_at_one(self):
        spec = Spectrum(SpectrumConfig(f_min=10.0, f_max=50.0, df=0.5))
        spec.add_events([j * 40 * MS for j in range(20)])
        norm = spec.normalized_amplitude()
        assert norm.max() == pytest.approx(1.0)

    def test_empty_normalized(self):
        spec = Spectrum(SpectrumConfig())
        assert np.all(spec.normalized_amplitude() == 0)


class TestRecoveryProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        period_ms=st.integers(min_value=15, max_value=45),
        jitter_us=st.integers(min_value=0, max_value=900),
    )
    def test_fundamental_is_global_peak_in_band(self, period_ms, jitter_us):
        """A jittered periodic train's in-band spectral peak sits at the
        fundamental frequency (within grid resolution + jitter slack)."""
        rng = np.random.default_rng(period_ms * 1000 + jitter_us)
        period = period_ms * MS
        f0 = SEC / period
        times = np.array(
            [j * period + rng.integers(-jitter_us * 1000, jitter_us * 1000 + 1) for j in range(1, 80)]
        )
        cfg = SpectrumConfig(f_min=f0 * 0.6, f_max=f0 * 1.4, df=0.1)
        freqs = cfg.frequencies()
        amp = sparse_amplitude_spectrum(times, cfg)
        peak_f = freqs[int(np.argmax(amp))]
        assert abs(peak_f - f0) <= 0.25


def one_shot(spec):
    """The oracle: the one-shot spectrum of the window's times."""
    return sparse_amplitude_spectrum(np.array(spec.times, dtype=np.int64), spec.config)


class TestBatchedFoldIdentity:
    """The window's spectrum is the one-shot spectrum, bit for bit.

    Columns are evaluated lazily and summed, and subtracted, in exact
    integers: however events arrive (one at a time or in batches) and leave
    (``slide_to``, ``reset``), ``amplitude()`` is bitwise equal to
    ``sparse_amplitude_spectrum`` of the window's times, and Eq. 3
    charges F operations per added event (retirement costs none).
    """

    def _jittered_train(self, n=400, seed=3):
        rng = np.random.default_rng(seed)
        period = round(1e9 / 32.5)
        times = np.arange(n, dtype=np.int64) * (period // 3)
        times = times + rng.integers(0, 300_000, size=n)
        return [int(t) for t in times]

    def test_add_events_matches_add_event_bitwise(self):
        times = self._jittered_train()
        batched = Spectrum(SpectrumConfig())
        single = Spectrum(SpectrumConfig())
        batched.add_events(times)
        for t in times:
            single.add_event(t)
        assert np.array_equal(batched.amplitude(), single.amplitude())  # bitwise
        assert np.array_equal(batched.amplitude(), one_shot(batched))
        assert batched.operations == single.operations == len(times) * batched.freqs.size
        assert batched.times == single.times

    def test_slide_to_matches_per_event_retirement(self):
        times = self._jittered_train(n=600)
        horizon = 2 * SEC
        spec = Spectrum(SpectrumConfig(), horizon_ns=horizon)
        spec.add_events(times)
        spec.amplitude()  # every event has its column before the slide
        now = times[-1]
        retired = spec.slide_to(now)
        kept = [t for t in times if t >= now - horizon]
        assert retired == len(times) - len(kept) > 0
        assert spec.times == kept
        expected = sparse_amplitude_spectrum(np.array(kept), spec.config)
        assert np.array_equal(spec.amplitude(), expected)
        assert spec.operations == len(times) * spec.freqs.size

    def test_interleaved_batches_match_streaming(self):
        times = self._jittered_train(n=500, seed=9)
        horizon = 1 * SEC
        batched = Spectrum(SpectrumConfig(), horizon_ns=horizon)
        single = Spectrum(SpectrumConfig(), horizon_ns=horizon)
        for start in range(0, len(times), 100):
            chunk = times[start : start + 100]
            batched.add_events(chunk)
            batched.slide_to(chunk[-1])
            assert np.array_equal(batched.amplitude(), one_shot(batched))
            for t in chunk:
                single.add_event(t)
            single.slide_to(chunk[-1])
        assert batched.operations == single.operations
        assert np.array_equal(batched.amplitude(), single.amplitude())

    def test_empty_and_singleton_batches(self):
        sp = Spectrum(SpectrumConfig())
        sp.add_events([])
        assert sp.operations == 0 and len(sp) == 0
        assert np.array_equal(sp.amplitude(), np.zeros(sp.freqs.size))
        sp.add_events([1_000_000])
        ref = Spectrum(SpectrumConfig())
        ref.add_event(1_000_000)
        assert np.array_equal(sp.amplitude(), ref.amplitude())
        assert np.array_equal(sp.amplitude(), one_shot(sp))
        assert sp.operations == ref.operations == sp.freqs.size

    def test_accepts_numpy_times(self):
        arr = np.array([10 * MS, 20 * MS, 30 * MS], dtype=np.int64)
        sp = Spectrum(SpectrumConfig())
        sp.add_events(arr)
        assert sp.times == [10 * MS, 20 * MS, 30 * MS]
        assert all(isinstance(t, int) for t in sp.times)

    # grids of 1, 2, 17 and 151 samples; 17 and 151 are not multiples of
    # B = ⌈√F⌉ (5 and 13), so their last coarse step is cut short
    GRIDS = [
        SpectrumConfig(f_min=5.0, f_max=6.0, df=4.0),
        SpectrumConfig(f_min=5.0, f_max=6.0, df=1.0),
        SpectrumConfig(f_min=20.0, f_max=100.0, df=5.0),
        SpectrumConfig(f_min=25.0, f_max=100.0, df=0.5),
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from(GRIDS),
        horizon=st.sampled_from([None, 30 * MS, 200 * MS]),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("add_event"), st.integers(0, 5 * MS)),
                st.tuples(st.just("add_events"), st.lists(st.integers(0, 5 * MS), max_size=40)),
                st.tuples(st.just("slide_to"), st.integers(0, 50 * MS)),
                st.tuples(st.just("reset"), st.just(0)),
                st.tuples(st.just("amplitude"), st.just(0)),
            ),
            max_size=40,
        ),
        origin=st.integers(0, 2**62),
    )
    def test_any_interleaving_matches_one_shot(self, grid, horizon, steps, origin):
        """Property: whenever it is read, after any add/slide/reset
        sequence, the amplitude is the one-shot spectrum of ``spec.times``;
        the Eq. 3 counter is always F per event ever added."""
        spec = Spectrum(grid, horizon_ns=horizon)
        clock = origin
        added = 0
        for op, arg in steps:
            if op == "add_event":
                clock += arg
                spec.add_event(clock)
                added += 1
            elif op == "add_events":
                batch = clock + np.cumsum(np.array(arg, dtype=np.int64))
                clock = int(batch[-1]) if arg else clock
                spec.add_events(batch)
                added += len(arg)
            elif op == "slide_to":
                spec.slide_to(clock - arg)
            elif op == "reset":
                spec.reset()
            else:  # between two looks, events may come and go column-less
                assert np.array_equal(spec.amplitude(), one_shot(spec))
            assert spec.operations == grid.n_samples * added
        assert np.array_equal(spec.amplitude(), one_shot(spec))


def direct_amplitude(times_ns, config):
    """The outside oracle: libm cos and sin of each sample's float64 phase,
    summed exactly by ``math.fsum``."""
    out = []
    for f in config.frequencies():
        phases = [2.0 * math.pi * float(f) * (t / SEC) for t in times_ns]
        re = math.fsum(math.cos(p) for p in phases)
        im = math.fsum(math.sin(p) for p in phases)
        out.append(math.hypot(re, im))
    return np.array(out)


class TestDirectOracle:
    """Both spectra against :func:`direct_amplitude`, within a bound fixed
    from the arithmetic alone.

    Per event and coordinate, the fixed-point column rounds by at most
    2^-41.  The phases differ from the exact ``2πft`` by at most 3 float64
    roundings of the largest phase Φ = 2π·f_max·t_max on the oracle's side
    (``2π·f``, ``t/SEC``, their product), 4 on each factor's side (its
    frequency, ``2π·f``, ``t/SEC``, their product) and 2 in the grid's
    ``f_min + k·δf``: under 10 ulp(Φ) in all.  Trig and the three factors'
    products round at most ~8 times at magnitudes ≤ 1: 2^-48 covers them.
    A coordinate sum is then off by N times that, and an amplitude by √2
    times a coordinate's bound.
    """

    GRIDS = TestBatchedFoldIdentity.GRIDS + [SpectrumConfig(f_min=20.0, f_max=100.0, df=0.1)]

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from(GRIDS),
        times=st.lists(st.integers(0, 1000 * SEC), max_size=40),
    )
    def test_within_rounding_of_direct_evaluation(self, grid, times):
        phase = 2.0 * math.pi * grid.f_max * (max(times, default=0) / SEC)
        tolerance = len(times) * math.sqrt(2) * (2**-41 + 10 * math.ulp(phase) + 2**-48)
        expected = direct_amplitude(times, grid)
        amp = sparse_amplitude_spectrum(np.array(times, dtype=np.int64), grid)
        assert np.max(np.abs(amp - expected), initial=0.0) <= tolerance
        spec = Spectrum(grid)
        spec.add_events(times)
        assert np.array_equal(spec.amplitude(), amp)

    def test_sum_of_2_23_events_raises(self):
        # a zero-stride view holds 2^23 events in 8 bytes
        times = np.broadcast_to(np.int64(0), (1 << 23,))
        with pytest.raises(ValueError, match="2\\^23"):
            sparse_amplitude_spectrum(times, SpectrumConfig())

    def test_window_guard_counts_the_whole_window(self, monkeypatch):
        monkeypatch.setattr(spectrum_module, "_MAX_EVENTS", 4)
        spec = Spectrum(SpectrumConfig())
        spec.add_events([1, 2, 3])
        spec.amplitude()
        spec.add_event(4)
        with pytest.raises(ValueError):
            spec.amplitude()
