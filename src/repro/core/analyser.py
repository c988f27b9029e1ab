"""The period analyser: first block of the task controller (Fig. 3).

Consumes batches of trace events (from the qtrace download agent or from a
recorded trace), maintains a sliding observation window of ``H`` ns, and on
demand runs spectrum + peak detection to produce a
:class:`PeriodEstimate`.  The window is a :class:`~repro.core.spectrum.Spectrum`,
so an analysis evaluates trig only for the events that arrived since the
last one.

The analyser is deliberately oblivious to *what* the events are — syscall
entries, exits, or scheduler wake-ups all work, as long as the application
emits them in periodic bursts (§4.2's founding assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.peaks import PeakConfig, PeakDetector, PeakResult
from repro.core.spectrum import Spectrum, SpectrumConfig
from repro.sim.time import SEC
from repro.tracer.events import TraceEvent


@dataclass(frozen=True)
class AnalyserConfig:
    """Everything the analyser needs: frequency grid, heuristic, horizon."""

    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    peaks: PeakConfig = field(default_factory=PeakConfig)
    #: observation time horizon H, ns
    horizon_ns: int = 2 * SEC
    #: minimum number of events in the window before attempting detection
    min_events: int = 8
    #: reject events stamped earlier than the newest accepted timestamp
    #: (clean traces are monotone per download, so this only fires on a
    #: corrupted timestamp source; see docs/fault-injection.md)
    reject_backwards: bool = True
    #: additionally reject events stamped *equal* to the newest accepted
    #: timestamp.  Off by default: merged multicore event trains contain
    #: legitimate equal timestamps.
    reject_duplicates: bool = False
    #: accept only period estimates inside ``(lo_ns, hi_ns)``; out-of-band
    #: detections are discarded (counted, not stored).  None = no band.
    period_band: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.horizon_ns <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_ns}")
        if self.min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {self.min_events}")
        if self.period_band is not None:
            lo, hi = self.period_band
            if lo <= 0 or hi <= lo:
                raise ValueError(f"period_band must satisfy 0 < lo < hi, got {self.period_band}")


@dataclass(frozen=True)
class PeriodEstimate:
    """A successful period detection."""

    #: fundamental frequency, Hz
    frequency: float
    #: the corresponding period, ns
    period_ns: int
    #: number of events the estimate was computed from
    n_events: int
    #: detection detail (candidates, harmonic sums, cost)
    detail: PeakResult = field(repr=False, default=None)  # type: ignore[assignment]


class PeriodAnalyser:
    """Sliding-window period estimation from kernel event timestamps."""

    def __init__(self, config: AnalyserConfig | None = None) -> None:
        self.config = config or AnalyserConfig()
        self._detector = PeakDetector(self.config.peaks)
        #: the observation window: its events and their spectrum columns
        self._spectrum = Spectrum(self.config.spectrum, horizon_ns=self.config.horizon_ns)
        #: most recent estimate (None until the first success)
        self.last_estimate: PeriodEstimate | None = None
        #: history of (analysis time, estimate-or-None)
        self.history: list[tuple[int, PeriodEstimate | None]] = []
        #: guard rejections by kind (``backwards`` / ``duplicate`` / ``band``)
        self.anomalies: dict[str, int] = {}
        #: ring-overrun losses reported by the download path
        self.overruns = 0
        self._last_accepted: int | None = None

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def _accept(self, t: int) -> bool:
        """Anomaly guard: admit ``t`` into the window or count a rejection.

        A corrupted download path can deliver timestamps that run
        backwards or collapse onto one instant; admitting them would
        poison the spectrum (a non-causal Dirac train has energy
        everywhere).  Rejected events are counted in :attr:`anomalies`
        and never reach the window.
        """
        last = self._last_accepted
        if last is not None:
            if self.config.reject_backwards and t < last:
                self.anomalies["backwards"] = self.anomalies.get("backwards", 0) + 1
                return False
            if self.config.reject_duplicates and t == last:
                self.anomalies["duplicate"] = self.anomalies.get("duplicate", 0) + 1
                return False
        self._last_accepted = t
        self._spectrum.add_event(t)
        return True

    def add_times(self, times_ns) -> None:
        """Feed raw event timestamps (ns)."""
        for t in times_ns:
            self._accept(int(t))

    def add_batch(self, batch: list[TraceEvent], now: int) -> None:
        """Sink interface for :meth:`repro.tracer.qtrace.QTracer.add_sink`."""
        for ev in batch:
            self._accept(ev.time)
        self._spectrum.slide_to(now)

    def note_overrun(self, n: int) -> None:
        """Record ``n`` events lost to ring overwrite before download."""
        self.overruns += n

    @property
    def n_events(self) -> int:
        """Events currently inside the observation window."""
        return len(self._spectrum)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def window_times(self, now: int | None = None) -> np.ndarray:
        """Timestamps inside the window ending at ``now`` (default: all)."""
        if now is not None:
            self._spectrum.slide_to(now)
        return np.array(self._spectrum.times, dtype=np.int64)

    def spectrum(self, now: int | None = None) -> np.ndarray:
        """Amplitude spectrum of the current window."""
        if now is not None:
            self._spectrum.slide_to(now)
        return self._spectrum.amplitude()

    def analyse(self, now: int | None = None) -> PeriodEstimate | None:
        """Run detection on the current window.

        Returns ``None`` when the window is too empty or the heuristic
        declares the event train non-periodic.  Successful estimates are
        also stored in :attr:`last_estimate`.
        """
        spectrum = self._spectrum
        if now is not None:
            spectrum.slide_to(now)
        n_events = len(spectrum)
        stamp = now if now is not None else (spectrum.times[-1] if n_events else 0)
        if n_events < self.config.min_events:
            self.history.append((stamp, None))
            return None
        result = self._detector.detect(spectrum.freqs, spectrum.amplitude())
        if result.frequency is None or result.frequency <= 0:
            self.history.append((stamp, None))
            return None
        period_ns = int(round(SEC / result.frequency))
        band = self.config.period_band
        if band is not None and not band[0] <= period_ns <= band[1]:
            # an implausible detection (coarsened clock, aliased spectrum):
            # discard rather than actuate on it
            self.anomalies["band"] = self.anomalies.get("band", 0) + 1
            self.history.append((stamp, None))
            return None
        estimate = PeriodEstimate(
            frequency=result.frequency,
            period_ns=period_ns,
            n_events=n_events,
            detail=result,
        )
        self.last_estimate = estimate
        self.history.append((stamp, estimate))
        return estimate
