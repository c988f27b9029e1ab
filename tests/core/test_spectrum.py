"""Tests for the sparse amplitude spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        freqs = np.array([1.0, 2.0])
        assert np.all(sparse_amplitude_spectrum(np.array([]), freqs) == 0)

    def test_single_event_flat_spectrum(self):
        # one Dirac delta has |S(f)| = 1 at every frequency
        freqs = np.linspace(1, 100, 200)
        amp = sparse_amplitude_spectrum(np.array([123456789]), freqs)
        assert np.allclose(amp, 1.0)

    def test_n_coincident_events(self):
        freqs = np.linspace(1, 50, 100)
        amp = sparse_amplitude_spectrum(np.full(7, 10 * MS), freqs)
        assert np.allclose(amp, 7.0)

    def test_periodic_train_peaks_at_fundamental(self):
        period = 40 * MS  # 25 Hz
        times = np.arange(50, dtype=np.int64) * period
        cfg = SpectrumConfig(f_min=5.0, f_max=100.0, df=0.1)
        freqs = cfg.frequencies()
        amp = sparse_amplitude_spectrum(times, freqs)
        for f0 in (25.0, 50.0, 75.0, 100.0):
            idx = int(round((f0 - 5.0) / 0.1))
            assert amp[idx] == pytest.approx(50.0, rel=1e-6), f0
        # off-harmonic amplitude is far below
        idx = int(round((37.0 - 5.0) / 0.1))
        assert amp[idx] < 10

    def test_linearity(self):
        freqs = np.linspace(1, 20, 40)
        a = np.array([1 * MS, 5 * MS, 9 * MS], dtype=np.int64)
        b = np.array([2 * MS, 7 * MS], dtype=np.int64)
        # amplitudes are not additive, but the underlying transform is:
        # verify via the parallelogram-ish bound |S_ab| <= |S_a| + |S_b|
        amp_ab = sparse_amplitude_spectrum(np.concatenate([a, b]), freqs)
        amp_a = sparse_amplitude_spectrum(a, freqs)
        amp_b = sparse_amplitude_spectrum(b, freqs)
        assert np.all(amp_ab <= amp_a + amp_b + 1e-9)

    def test_amplitude_bounded_by_event_count(self):
        rng = np.random.default_rng(1)
        times = rng.integers(0, 2 * SEC, size=100)
        freqs = np.linspace(1, 100, 500)
        amp = sparse_amplitude_spectrum(times, freqs)
        assert np.all(amp <= 100.0 + 1e-9)


class TestIncremental:
    def test_matches_one_shot(self):
        cfg = SpectrumConfig(f_min=10.0, f_max=50.0, df=0.5)
        times = [3 * MS, 43 * MS, 83 * MS, 123 * MS]
        spec = Spectrum(cfg)
        spec.add_events(times)
        expected = sparse_amplitude_spectrum(np.array(times), cfg.frequencies())
        assert np.allclose(spec.amplitude(), expected, atol=1e-6)

    def test_slide_retires_old_events_exactly(self):
        cfg = SpectrumConfig(f_min=10.0, f_max=50.0, df=0.5)
        spec = Spectrum(cfg, horizon_ns=100 * MS)
        spec.add_events([1 * MS, 50 * MS, 120 * MS, 180 * MS])
        retired = spec.slide_to(200 * MS)
        assert retired == 2
        expected = sparse_amplitude_spectrum(
            np.array([120 * MS, 180 * MS]), cfg.frequencies()
        )
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
        amp = sparse_amplitude_spectrum(times, freqs)
        peak_f = freqs[int(np.argmax(amp))]
        assert abs(peak_f - f0) <= 0.25


def one_shot(spec):
    """The oracle: the one-shot spectrum of the window's times."""
    return sparse_amplitude_spectrum(np.array(spec.times, dtype=np.int64), spec.freqs)


class TestBatchedFoldIdentity:
    """The window's spectrum is the one-shot spectrum, bit for bit.

    Columns are evaluated lazily and retired by index, never subtracted:
    however events arrive (one at a time or in batches) and leave
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
        assert np.array_equal(
            spec.amplitude(), sparse_amplitude_spectrum(np.array(kept), spec.freqs)
        )
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

    def test_column_buffers_grow_drift_move_back_and_shrink(self):
        """The window grows (its rows widen from the last row back), holds
        steady (it drifts through the buffers and, past its drift room,
        moves back to the front), grows again after drifting (the first
        rows move left and the rest right), then thins out (the rows
        narrow); 151 rows move in three blocks each time, and every read
        is the one-shot spectrum."""
        moves = []

        class Recording(Spectrum):
            _SLIDE = 200  # the default drift room would outlast this test

            def _move_rows(self, stride):
                moves.append((self._stride, stride, self._start))
                super()._move_rows(stride)

        spec = Recording(self.GRIDS[3], horizon_ns=100 * MS)
        clock = 0
        for batch, spacing in [(5, 1)] + [(30, 1)] * 14 + [(30, 0.5)] * 4 + [(10, 3)] * 12:
            times = [clock + int((k + 1) * spacing * MS) for k in range(batch)]
            clock = times[-1]
            spec.add_events(times)
            spec.slide_to(clock)
            assert np.array_equal(spec.amplitude(), one_shot(spec))
        assert len(spec) == 34
        assert any(new > old > 0 and start == 0 for old, new, start in moves)  # widen
        assert any(new == old and start > Recording._SLIDE for old, new, start in moves)
        # widen after drifting: row 0 moves left, the last row right
        assert any(0 < old < new and 0 < (new - old) * 150 - start for old, new, start in moves
                   if start > new - old)
        assert any(0 < new < old for old, new, start in moves)  # narrow

    # grids of 1, 2, 17 and 151 samples: 151 rows move in three blocks
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
        slide=st.sampled_from([Spectrum._SLIDE, 0, 7]),
    )
    def test_any_interleaving_matches_one_shot(self, grid, horizon, steps, origin, slide):
        """Property: whenever it is read, after any add/slide/reset
        sequence, the amplitude is the one-shot spectrum of ``spec.times``;
        the Eq. 3 counter is always F per event ever added.  Small drift
        rooms make the rows move back to the front often."""
        spec = type("Drifting", (Spectrum,), {"_SLIDE": slide})(grid, horizon_ns=horizon)
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
