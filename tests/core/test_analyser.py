"""Tests for the sliding-window period analyser."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyser import AnalyserConfig, PeriodAnalyser, PeriodEstimate
from repro.core.peaks import PeakConfig
from repro.core.spectrum import SpectrumConfig, sparse_amplitude_spectrum
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS, SEC
from repro.tracer.events import EventKind, TraceEvent
from tests.core.reference_detect import result_key, scalar_detect


def cfg(**kwargs):
    defaults = dict(
        spectrum=SpectrumConfig(f_min=15.0, f_max=100.0, df=0.1),
        horizon_ns=2 * SEC,
        min_events=8,
    )
    defaults.update(kwargs)
    return AnalyserConfig(**defaults)


def train(period, n, phase=0):
    return [phase + j * period for j in range(n)]


class TestConfigValidation:
    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            AnalyserConfig(horizon_ns=0)

    def test_invalid_min_events(self):
        with pytest.raises(ValueError):
            AnalyserConfig(min_events=0)


class TestDetection:
    def test_detects_25hz_train(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times(train(40 * MS, 60))
        estimate = analyser.analyse(60 * 40 * MS)
        assert estimate is not None
        assert estimate.frequency == pytest.approx(25.0, abs=0.1)
        assert estimate.period_ns == pytest.approx(40 * MS, rel=0.01)

    def test_too_few_events_returns_none(self):
        analyser = PeriodAnalyser(cfg(min_events=10))
        analyser.add_times(train(40 * MS, 5))
        assert analyser.analyse(2 * SEC) is None

    def test_estimate_carries_event_count(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times(train(40 * MS, 30))
        estimate = analyser.analyse(30 * 40 * MS)
        assert estimate.n_events == 30

    def test_last_estimate_retained(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times(train(40 * MS, 60))
        first = analyser.analyse(60 * 40 * MS)
        assert analyser.last_estimate is first

    def test_history_records_failures_too(self):
        analyser = PeriodAnalyser(cfg(min_events=10))
        analyser.analyse(1 * SEC)
        analyser.add_times(train(40 * MS, 60))
        analyser.analyse(60 * 40 * MS)
        assert len(analyser.history) == 2
        assert analyser.history[0][1] is None
        assert analyser.history[1][1] is not None


class TestWindowing:
    def test_events_outside_horizon_evicted(self):
        analyser = PeriodAnalyser(cfg(horizon_ns=1 * SEC))
        analyser.add_times(train(40 * MS, 100))  # covers 4 s
        analyser.analyse(4 * SEC)
        assert analyser.n_events <= 26

    def test_window_times_sorted_view(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times([10 * MS, 20 * MS])
        times = analyser.window_times()
        assert list(times) == [10 * MS, 20 * MS]

    def test_spectrum_shape(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times(train(40 * MS, 30))
        amp = analyser.spectrum()
        assert amp.shape == analyser.config.spectrum.frequencies().shape


class TestBatchSink:
    def test_add_batch_filters_nothing_but_evicts(self):
        analyser = PeriodAnalyser(cfg(horizon_ns=1 * SEC))
        batch = [
            TraceEvent(t, 1, SyscallNr.IOCTL, EventKind.SYSCALL_ENTRY)
            for t in train(40 * MS, 60)
        ]
        analyser.add_batch(batch, now=60 * 40 * MS)
        assert analyser.n_events <= 26  # horizon is 1 s

    def test_detection_from_batches(self):
        analyser = PeriodAnalyser(cfg())
        for chunk_start in range(0, 60, 10):
            batch = [
                TraceEvent(j * 40 * MS, 1, SyscallNr.IOCTL, EventKind.SYSCALL_ENTRY)
                for j in range(chunk_start, chunk_start + 10)
            ]
            analyser.add_batch(batch, now=(chunk_start + 10) * 40 * MS)
        estimate = analyser.analyse(60 * 40 * MS)
        assert estimate.frequency == pytest.approx(25.0, abs=0.1)


class TestAnomalyGuards:
    def test_backwards_rejected_and_counted(self):
        analyser = PeriodAnalyser(cfg())
        analyser.add_times([0, 40 * MS, 80 * MS, 60 * MS, 120 * MS])
        assert analyser.n_events == 4
        assert analyser.anomalies == {"backwards": 1}

    def test_backwards_admitted_when_guard_off(self):
        analyser = PeriodAnalyser(cfg(reject_backwards=False))
        analyser.add_times([0, 40 * MS, 20 * MS])
        assert analyser.n_events == 3
        assert analyser.anomalies == {}

    def test_duplicates_admitted_by_default(self):
        # merged multicore event trains contain legitimate equal stamps
        analyser = PeriodAnalyser(cfg())
        analyser.add_times([0, 40 * MS, 40 * MS])
        assert analyser.n_events == 3

    def test_duplicates_rejected_when_selected(self):
        analyser = PeriodAnalyser(cfg(reject_duplicates=True))
        analyser.add_times([0, 40 * MS, 40 * MS, 80 * MS])
        assert analyser.n_events == 3
        assert analyser.anomalies == {"duplicate": 1}

    def test_detection_survives_corrupt_interleaving(self):
        # a clean 25 Hz train with backwards junk after every event: the
        # guard drops the junk, and the estimate stays on the true line
        analyser = PeriodAnalyser(cfg())
        corrupted = []
        for t in train(40 * MS, 60):
            corrupted.append(t)
            corrupted.append(max(0, t - 17 * MS))
        analyser.add_times(corrupted)
        estimate = analyser.analyse(60 * 40 * MS)
        assert estimate is not None
        assert estimate.frequency == pytest.approx(25.0, abs=0.1)
        assert analyser.anomalies["backwards"] == 59

    def test_band_discards_out_of_band_estimate(self):
        analyser = PeriodAnalyser(cfg(period_band=(50 * MS, 200 * MS)))
        analyser.add_times(train(40 * MS, 60))
        assert analyser.analyse(60 * 40 * MS) is None
        assert analyser.anomalies == {"band": 1}
        assert analyser.last_estimate is None
        assert analyser.history[-1][1] is None

    def test_band_admits_in_band_estimate(self):
        analyser = PeriodAnalyser(cfg(period_band=(10 * MS, 200 * MS)))
        analyser.add_times(train(40 * MS, 60))
        estimate = analyser.analyse(60 * 40 * MS)
        assert estimate is not None
        assert estimate.period_ns == pytest.approx(40 * MS, rel=0.01)

    @pytest.mark.parametrize("band", [(0, 10), (10, 10), (20, 10)])
    def test_band_validation(self, band):
        with pytest.raises(ValueError):
            AnalyserConfig(period_band=band)

    def test_note_overrun_accumulates(self):
        analyser = PeriodAnalyser(cfg())
        analyser.note_overrun(3)
        analyser.note_overrun(2)
        assert analyser.overruns == 5


class ReferenceAnalyser:
    """The analyser without incremental state: a deque of window times,
    the one-shot spectrum of the whole window and the scalar detector on
    every call."""

    def __init__(self, config: AnalyserConfig) -> None:
        self.config = config
        self._freqs = config.spectrum.frequencies()
        self._times: deque[int] = deque()
        self.history: list = []
        self.anomalies: dict[str, int] = {}
        self._last_accepted: int | None = None

    def _accept(self, t: int) -> None:
        last = self._last_accepted
        if last is not None:
            if self.config.reject_backwards and t < last:
                self.anomalies["backwards"] = self.anomalies.get("backwards", 0) + 1
                return
            if self.config.reject_duplicates and t == last:
                self.anomalies["duplicate"] = self.anomalies.get("duplicate", 0) + 1
                return
        self._last_accepted = t
        self._times.append(t)

    def add_times(self, times_ns) -> None:
        for t in times_ns:
            self._accept(int(t))

    def add_batch(self, batch, now: int) -> None:
        for ev in batch:
            self._accept(ev.time)
        self._evict(now)

    def _evict(self, now: int) -> None:
        cutoff = now - self.config.horizon_ns
        while self._times and self._times[0] < cutoff:
            self._times.popleft()

    def window_times(self, now=None) -> np.ndarray:
        if now is not None:
            self._evict(now)
        return np.fromiter(self._times, dtype=np.int64, count=len(self._times))

    def analyse(self, now=None):
        times = self.window_times(now)
        stamp = now if now is not None else (int(times[-1]) if times.size else 0)
        if times.size < self.config.min_events:
            self.history.append((stamp, None))
            return None
        amp = sparse_amplitude_spectrum(times, self.config.spectrum)
        result = scalar_detect(self.config.peaks, self._freqs, amp)
        if result.frequency is None or result.frequency <= 0:
            self.history.append((stamp, None))
            return None
        period_ns = int(round(SEC / result.frequency))
        band = self.config.period_band
        if band is not None and not band[0] <= period_ns <= band[1]:
            self.anomalies["band"] = self.anomalies.get("band", 0) + 1
            self.history.append((stamp, None))
            return None
        estimate = PeriodEstimate(result.frequency, period_ns, int(times.size), result)
        self.history.append((stamp, estimate))
        return estimate


def estimate_key(estimate):
    """Every field of an estimate (floats exact), or None."""
    if estimate is None:
        return None
    return (
        estimate.frequency.hex(),
        estimate.period_ns,
        estimate.n_events,
        result_key(estimate.detail),
    )


class TestIncrementalOracle:
    """The incremental analyser returns exactly what a from-scratch one
    returns: same window, same spectrum bits, same detection."""

    @settings(max_examples=40, deadline=None)
    @given(
        period_ms=st.integers(min_value=20, max_value=60),
        jitter_ms=st.integers(min_value=0, max_value=3),
        min_events=st.sampled_from([1, 8, 40]),
        reject_backwards=st.booleans(),
        reject_duplicates=st.booleans(),
        band=st.sampled_from([None, (15 * MS, 45 * MS)]),
        peaks=st.sampled_from([PeakConfig(), PeakConfig(alpha=0.5, alpha_ref="max", k_max=3)]),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["batch", "times", "analyse", "analyse-none", "gap"]),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=30,
        ),
    )
    def test_matches_from_scratch_reference(
        self,
        period_ms,
        jitter_ms,
        min_events,
        reject_backwards,
        reject_duplicates,
        band,
        peaks,
        steps,
    ):
        config = cfg(
            spectrum=SpectrumConfig(f_min=15.0, f_max=100.0, df=0.5),
            horizon_ns=1 * SEC,
            min_events=min_events,
            reject_backwards=reject_backwards,
            reject_duplicates=reject_duplicates,
            period_band=band,
            peaks=peaks,
        )
        analyser = PeriodAnalyser(config)
        reference = ReferenceAnalyser(config)
        clock = 0

        def events(n, seed):
            # a jittered train with the odd backwards or repeated stamp
            nonlocal clock
            rng = random.Random(seed)
            out = []
            for _ in range(n):
                roll = rng.random()
                if roll < 0.1:
                    out.append(clock - rng.randrange(1, 5 * MS))
                elif roll < 0.2:
                    out.append(clock)
                else:
                    clock += period_ms * MS + rng.randrange(-jitter_ms * MS, jitter_ms * MS + 1)
                    out.append(clock)
            return out

        for op, n, seed in steps:
            if op == "batch":
                batch = [
                    TraceEvent(t, 1, SyscallNr.IOCTL, EventKind.SYSCALL_ENTRY)
                    for t in events(n, seed)
                ]
                analyser.add_batch(batch, now=clock)
                reference.add_batch(batch, now=clock)
            elif op == "times":
                times = events(n, seed)
                analyser.add_times(times)
                reference.add_times(times)
            elif op == "gap":  # past the horizon: the next slide empties the window
                clock += 2 * SEC
            else:
                now = None if op == "analyse-none" else clock + n * MS
                assert estimate_key(analyser.analyse(now)) == estimate_key(reference.analyse(now))
            assert analyser.n_events == len(reference._times)
            assert analyser.anomalies == reference.anomalies
        history = [(t, estimate_key(e)) for t, e in analyser.history]
        assert history == [(t, estimate_key(e)) for t, e in reference.history]
        assert np.array_equal(analyser.window_times(), reference.window_times())
