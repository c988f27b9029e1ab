"""Sparse amplitude spectrum of an event time series (§4.2–4.3).

Each traced kernel event at time ``t_i`` is modelled as a Dirac delta, so
the signal's Fourier transform evaluated at angular frequency ``ω`` is
simply ``Σ_i e^{-jω t_i}`` — no sampling grid, no FFT.  The paper computes
the *amplitude* spectrum (Eq. 4)::

    |S(ω)| = | Σ_{i=1..N} e^{-jω t_i} |

on a frequency range ``[f_min, f_max]`` with resolution ``δf``.  The
computation is embarrassingly incremental: a new event adds one complex
exponential per frequency sample, which is why the paper prefers it over an
FFT whose sampling period would need to be nanoseconds ("the resulting
signal would be null most of the time").

Two interfaces are provided:

- :func:`sparse_amplitude_spectrum` — one-shot, vectorised over numpy;
- :class:`Spectrum` — the same spectrum over a sliding observation window,
  incremental as the paper intends: each event's column of
  ``(cos ωt, sin ωt)`` values is evaluated once and reused until the event
  leaves the window, so refreshing the spectrum costs trig only for the
  events added since the last refresh.  Its amplitude is bitwise equal to
  the one-shot result, and it carries the operation counter of Eq. 3 for
  the overhead studies of Figures 6–7.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from dataclasses import dataclass

import numpy as np

from repro.sim.time import SEC


@dataclass(frozen=True)
class SpectrumConfig:
    """Frequency-domain sampling parameters.

    Defaults match the paper's experimental mid-range: spectrum computed
    between 1 Hz and 100 Hz with a 0.1 Hz step.
    """

    f_min: float = 1.0
    f_max: float = 100.0
    df: float = 0.1

    def __post_init__(self) -> None:
        if self.f_min < 0:
            raise ValueError(f"f_min must be >= 0, got {self.f_min}")
        if self.f_max <= self.f_min:
            raise ValueError(f"need f_max > f_min, got [{self.f_min}, {self.f_max}]")
        if self.df <= 0:
            raise ValueError(f"df must be positive, got {self.df}")

    def frequencies(self) -> np.ndarray:
        """The sampled frequency grid (Hz), inclusive of both ends."""
        n = int(round((self.f_max - self.f_min) / self.df)) + 1
        return self.f_min + self.df * np.arange(n)

    @property
    def n_samples(self) -> int:
        """Number of frequency samples F = (f_max - f_min)/δf + 1."""
        return int(round((self.f_max - self.f_min) / self.df)) + 1


def sparse_amplitude_spectrum(times_ns: np.ndarray, freqs_hz: np.ndarray) -> np.ndarray:
    """Amplitude spectrum ``|Σ e^{-j 2π f t_i}|`` of events at ``times_ns``.

    ``times_ns`` are integer nanoseconds; ``freqs_hz`` is the grid in Hz.
    Returns an array of the same length as ``freqs_hz``.  An empty event
    set yields all zeros.
    """
    times_ns = np.asarray(times_ns, dtype=np.float64)
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if times_ns.size == 0:
        return np.zeros_like(freqs_hz)
    t_sec = times_ns / SEC
    # Chunk over frequencies to bound the (F x N) intermediate; real
    # cos/sin on the phase matrix beats complex exp by ~2x.
    out = np.empty_like(freqs_hz)
    chunk = max(1, int(4_000_000 / max(t_sec.size, 1)))
    for start in range(0, freqs_hz.size, chunk):
        f = freqs_hz[start : start + chunk]
        phase = (2.0 * np.pi) * np.outer(f, t_sec)
        re = np.cos(phase).sum(axis=1)
        im = np.sin(phase).sum(axis=1)
        out[start : start + chunk] = np.hypot(re, im)
    return out


class Spectrum:
    """Incremental sparse spectrum over a sliding observation window.

    Events enter with :meth:`add_event` / :meth:`add_events`;
    :meth:`slide_to` retires events older than the configured horizon.
    Each event's contribution ``e^{-jωt}`` is one column of
    ``(cos ωt, sin ωt)`` values over the frequency grid.  A column is
    evaluated once, on the first :meth:`amplitude` call after its event
    arrived, and kept until the event leaves the window: retirement only
    advances the window's first column, and nothing is ever subtracted.
    :meth:`amplitude` sums the window's columns row by row exactly as
    :func:`sparse_amplitude_spectrum` sums its phase matrix, so the two
    are bitwise equal.  :attr:`operations` counts the complex
    exponentiations of Eq. 3, charged when an event is added.

    The columns live in two flat float64 buffers.  Row ``r`` of the
    window (frequency sample ``r``, one value per windowed event) is the
    contiguous run ``flat[r·stride + start : r·stride + stop]``, and the
    stride is wider than the window, so every row ends in the slots that
    the next row's retired columns held: new columns are written just past
    the end of every row, retirement advances ``start``, and the window
    drifts right through the buffers without anything being copied.  The
    rows move (to the front, at a new stride if need be) only when the
    window outgrows its stride, or has drifted ``_SLIDE`` columns.  The
    buffers hold 16 B per frequency sample per windowed event, plus about
    10% headroom in the stride and 16 B per column of drift room; they
    resize in place (``ndarray.resize``), growing with the window and
    shrinking once it has fallen well below the stride, so the window is
    never held twice.
    """

    #: rows moved per slice assignment when the rows move (bounds numpy's
    #: temporary copy of an overlapping source)
    _ROW_BLOCK = 64
    #: columns the window may drift before its rows move back to the front
    _SLIDE = 8192

    def __init__(self, config: SpectrumConfig | None = None, *, horizon_ns: int | None = None) -> None:
        self.config = config or SpectrumConfig()
        self.freqs = self.config.frequencies()
        self._times: deque[int] = deque()
        self.horizon_ns = horizon_ns
        #: complex exponentiations charged so far (Eq. 3 accounting)
        self.operations = 0
        # the buffers own their memory (so they can resize in place); the
        # column of window event k is at [r * _stride + _start + k] for row
        # r, and events past the _stop - _start oldest ones have no column
        # yet
        self._cos = np.zeros(0)
        self._sin = np.zeros(0)
        self._stride = 0
        self._start = 0
        self._stop = 0

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[int]:
        """Event timestamps currently inside the window (ns, sorted order
        of insertion)."""
        return list(self._times)

    def add_event(self, t_ns: int) -> None:
        """Add one event at ``t_ns`` to the window."""
        self._times.append(t_ns)
        self.operations += self.freqs.size

    def add_events(self, times_ns) -> None:
        """Add a batch of events (any iterable of int ns)."""
        batch = [int(t) for t in times_ns]
        self._times.extend(batch)
        self.operations += self.freqs.size * len(batch)

    def slide_to(self, now_ns: int) -> int:
        """Retire events older than ``now - horizon``; return the count.

        No-op when the spectrum was created without a horizon.
        """
        if self.horizon_ns is None:
            return 0
        cutoff = now_ns - self.horizon_ns
        times = self._times
        retired = 0
        while times and times[0] < cutoff:
            times.popleft()
            retired += 1
        # retired events without a column yet simply never get one
        self._start = min(self._start + retired, self._stop)
        return retired

    def reset(self) -> None:
        """Drop all events (the next read shrinks the buffers if the new window is small)."""
        self._times.clear()
        self._start = self._stop = 0
        # operations counter intentionally preserved (cumulative cost)

    def _rows(self, flat: np.ndarray, first: int) -> np.ndarray:
        """``flat`` as ``(F, stride)`` rows, from column ``first`` of row 0."""
        n_rows, stride = self.freqs.size, self._stride
        return flat[first : first + n_rows * stride].reshape(n_rows, stride)

    def _move_rows(self, stride: int) -> None:
        """Move the window's rows to the front of the buffers, at ``stride``.

        Row ``r`` moves from ``start + r·old`` to ``r·stride``.  The rows
        that move left go first, from the first row on, and then the rest
        from the last row back, so no row is overwritten before it has
        moved; the buffers resize in place, widening before and narrowing
        after.
        """
        n_rows, old = self.freqs.size, self._stride
        start, live = self._start, self._stop - self._start
        # a window that drifted _SLIDE columns still fits (see _add_columns)
        size = (n_rows + 1) * stride + self._SLIDE
        # rows before ``split`` move left (or stay)
        split = n_rows if stride <= old else min(n_rows, start // (stride - old) + 1)
        step = self._ROW_BLOCK
        blocks = [(r, min(r + step, split)) for r in range(0, split, step)]
        blocks += reversed([(r, min(r + step, n_rows)) for r in range(split, n_rows, step)])
        for flat in (self._cos, self._sin):
            if size > flat.size:
                flat.resize(size, refcheck=False)
            for r0, r1 in blocks if live else ():
                src = flat[start + r0 * old : start + r1 * old].reshape(r1 - r0, old)[:, :live]
                flat[r0 * stride : r1 * stride].reshape(r1 - r0, stride)[:, :live] = src
            if size < flat.size:
                flat.resize(size, refcheck=False)
        self._stride, self._start, self._stop = stride, 0, live

    def _add_columns(self, times_ns: list[int]) -> None:
        """Evaluate and store the columns of ``times_ns`` (the newest
        window events, oldest first)."""
        n = len(times_ns)
        need = self._stop - self._start + n
        fit = need + max(need // 10, 16)
        if need > self._stride or 4 * fit < 3 * self._stride:
            # grow, or shrink once the window has fallen well below the stride
            self._move_rows(fit)
        elif self._start > self._SLIDE:
            # out of drift room: back to the front
            self._move_rows(self._stride)
        # now _start <= _SLIDE and need <= _stride, so every row, read from
        # any _start up to the new _stop, lies inside the buffers
        # ((F + 1) · stride + _SLIDE)
        # the same arithmetic, on the same contiguous shapes, as
        # sparse_amplitude_spectrum: that is what makes the sums bitwise equal
        t_sec = np.asarray(np.array(times_ns, dtype=np.int64), dtype=np.float64) / SEC
        phase = (2.0 * np.pi) * np.outer(self.freqs, t_sec)
        self._rows(self._cos, self._stop)[:, :n] = np.cos(phase)
        self._rows(self._sin, self._stop)[:, :n] = np.sin(phase)
        self._stop += n

    def amplitude(self) -> np.ndarray:
        """Current amplitude spectrum |S(f)| over the grid.

        Bitwise equal to ``sparse_amplitude_spectrum(times, freqs)``.
        """
        n = len(self._times)
        if n == 0:
            return np.zeros(self.freqs.size)
        pending = n - (self._stop - self._start)
        if pending:
            self._add_columns(list(islice(reversed(self._times), pending))[::-1])
        re = self._rows(self._cos, self._start)[:, :n].sum(axis=1)
        im = self._rows(self._sin, self._start)[:, :n].sum(axis=1)
        return np.hypot(re, im)

    def normalized_amplitude(self) -> np.ndarray:
        """Amplitude spectrum scaled so its maximum is 1 (Figure 10)."""
        amp = self.amplitude()
        peak = amp.max() if amp.size else 0.0
        return amp / peak if peak > 0 else amp


def expected_operations(config: SpectrumConfig, n_events: int) -> int:
    """The Eq. 3 operation count ``O = (f_max - f_min)/δf · N``.

    (The paper writes N as ``H/P · K``: events per period times periods in
    the horizon; callers that know those factors can pass their product.)
    """
    return config.n_samples * n_events


def replicate_series(times_ns: np.ndarray, cycle_len_ns: int, cycles: int) -> np.ndarray:
    """Stitch ``cycles`` extra repetitions of one recorded cycle of event
    times onto the original series, integer-exactly.

    This is the spectrum-input counterpart of the fast-forward
    extrapolation in :mod:`repro.sim.cycles`: when a schedule cycle of
    length ``cycle_len_ns`` repeats ``cycles`` more times, the syscall (or
    label) timestamp series of the skipped span is the recorded cycle
    shifted by ``k * cycle_len_ns``.  All arithmetic stays in ``int64`` —
    a float round-trip could move an event by a nanosecond and change a
    digest.

    >>> import numpy as np
    >>> replicate_series(np.array([10, 30], dtype=np.int64), 100, 2)
    array([ 10,  30, 110, 130, 210, 230])
    """
    if cycle_len_ns <= 0:
        raise ValueError(f"cycle_len_ns must be positive, got {cycle_len_ns}")
    if cycles < 0:
        raise ValueError(f"cycles must be non-negative, got {cycles}")
    base = np.asarray(times_ns, dtype=np.int64)
    if cycles == 0 or base.size == 0:
        return base.copy()
    parts = [base + np.int64(k * cycle_len_ns) for k in range(cycles + 1)]
    return np.concatenate(parts)
