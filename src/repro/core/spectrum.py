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

An event's *column*, its ``(cos 2πf_k t, sin 2πf_k t)`` over the grid, is
rounded to int64 multiples of 2^-40.  It comes from a factorised
exponential, ``e^{j2πf_min t} · e^{j2π aBδf t} · e^{j2π bδf t}`` for
``k = aB + b`` and ``B = ⌈√F⌉``: trig on ``1 + ⌈F/B⌉ + B`` phases per
event instead of F (58 instead of 801 on fig13's grid).  Elementwise IEEE
arithmetic and libm trig make a column a function of ``(t, config)``
alone, whatever batch computes it, and integer sums are exact, so a
spectrum has the same bits however its events were summed.  The rounding
adds at most 2^-41 per event and coordinate to the phase error of any
float64 evaluation of ``2πft``.  A sum converts to float64 exactly below
2^13 events (deterministically above); one of 2^23 events or more could
overflow int64 and raises ``ValueError``.

:func:`sparse_amplitude_spectrum` is the one-shot spectrum;
:class:`Spectrum` is the same spectrum over a sliding observation window,
incremental as the paper intends and bitwise equal to the one-shot result,
with the operation counter of Eq. 3 for the overhead studies of Figures
6–7.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.sim.time import SEC

#: 1.0 in a column's fixed point, whose unit is 2^-40
_ONE = 2.0**40
#: events in one sum from which int64 could overflow (2^23 · 2^40 = 2^63)
_MAX_EVENTS = 1 << 23
#: about the elements of one column temporary (F × events per chunk); larger
#: chunks leave the cache and measured slower
_CHUNK = 1 << 16


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


def _columns(times_ns: np.ndarray, config: SpectrumConfig) -> tuple[np.ndarray, np.ndarray]:
    """The int64 (n, F) fixed-point cos and sin columns of events at int64 ``times_ns``."""
    n_samples, df = config.n_samples, config.df
    fine = math.isqrt(n_samples - 1) + 1  # B = ⌈√F⌉ minimises ⌈F/B⌉ + B
    t = (times_ns / SEC)[:, None]
    base = t * (2.0 * np.pi * config.f_min)
    phase = t * ((2.0 * np.pi) * (np.arange(fine) * df))
    c, s, c0, s0 = np.cos(phase), np.sin(phase), np.cos(base), np.sin(base)
    # e^{j2π(f_min + bδf)t} in fixed point (exactly: 2^40 is a power of two)
    cb, sb = (c0 * c - s0 * s) * _ONE, (c0 * s + s0 * c) * _ONE
    phase = t * ((2.0 * np.pi) * (np.arange(0, n_samples, fine) * df))
    # column k = aB + b: factor a repeated B times, factor b tiled ⌈F/B⌉ times
    ca, sa = np.repeat(np.cos(phase), fine, axis=1), np.repeat(np.sin(phase), fine, axis=1)
    cb, sb = np.tile(cb, phase.shape[1]), np.tile(sb, phase.shape[1])
    re = ca * cb
    re -= sa * sb
    im = np.multiply(ca, sb, out=ca)
    im += np.multiply(sa, cb, out=sa)
    np.rint(re, out=re)
    np.rint(im, out=im)
    return re[:, :n_samples].astype(np.int64), im[:, :n_samples].astype(np.int64)


def _column_chunks(
    times_ns: np.ndarray, config: SpectrumConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_columns` of the int64 ``times_ns``, a bounded chunk at a time."""
    step = max(1, _CHUNK // config.n_samples)
    for start in range(0, times_ns.size, step):
        yield _columns(times_ns[start : start + step], config)


def _check_sum(n_events: int) -> None:
    if n_events >= _MAX_EVENTS:
        raise ValueError(f"cannot sum {n_events} events: an int64 sum holds fewer than 2^23")


def _amplitude(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.hypot(re, im) / _ONE


def sparse_amplitude_spectrum(times_ns: np.ndarray, config: SpectrumConfig) -> np.ndarray:
    """Amplitude spectrum ``|Σ e^{-j 2π f t_i}|`` of events at ``times_ns``.

    ``times_ns`` are integer nanoseconds.  Returns one value per sample of
    ``config.frequencies()``; an empty event set yields all zeros.
    """
    times_ns = np.asarray(times_ns, dtype=np.int64)
    _check_sum(times_ns.size)
    re = np.zeros(config.n_samples, dtype=np.int64)
    im = np.zeros_like(re)
    for cos, sin in _column_chunks(times_ns, config):
        re += cos.sum(axis=0)
        im += sin.sum(axis=0)
    return _amplitude(re, im)


class Spectrum:
    """Incremental sparse spectrum over a sliding observation window.

    Events enter with :meth:`add_event` / :meth:`add_events`;
    :meth:`slide_to` retires events older than the configured horizon.
    The window's spectrum is two int64 running sums over the grid: the
    first :meth:`amplitude` call after an event arrived adds its column,
    and the first after :meth:`slide_to` retired it subtracts the column
    again (an event retired before any read never gets one).  A read thus
    costs F per event that came or went, and, the sums being exact, it is
    bitwise equal to :func:`sparse_amplitude_spectrum` of the window's
    times.  With a horizon, the summed columns are kept, in the blocks the
    reads computed them in, until their events leave: 16 B per frequency
    sample per windowed event.  :attr:`operations` counts the complex
    exponentiations of Eq. 3, charged when an event is added.
    """

    def __init__(self, config: SpectrumConfig | None = None, *, horizon_ns: int | None = None) -> None:
        self.config = config or SpectrumConfig()
        self.freqs = self.config.frequencies()
        self._times: deque[int] = deque()
        self.horizon_ns = horizon_ns
        #: complex exponentiations charged so far (Eq. 3 accounting)
        self.operations = 0
        self._re = np.zeros(self.freqs.size, dtype=np.int64)
        self._im = np.zeros_like(self._re)
        #: how many of the oldest window events have their columns summed
        self._summed = 0
        #: with a horizon, the summed (cos, sin) columns in blocks, oldest first
        self._blocks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        #: summed columns of retired events, subtracted at the next read
        self._leaving = 0

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
        leaving = min(retired, self._summed)
        self._summed -= leaving
        self._leaving += leaving
        return retired

    def reset(self) -> None:
        """Drop all events."""
        self._times.clear()
        self._re[:] = 0
        self._im[:] = 0
        self._summed = self._leaving = 0
        self._blocks.clear()
        # operations counter intentionally preserved (cumulative cost)

    def amplitude(self) -> np.ndarray:
        """Current amplitude spectrum |S(f)| over the grid.

        Bitwise equal to ``sparse_amplitude_spectrum(times, config)``.
        """
        while self._leaving:
            cos, sin = self._blocks[0]
            gone = min(self._leaving, len(cos))
            self._re -= cos[:gone].sum(axis=0)
            self._im -= sin[:gone].sum(axis=0)
            self._leaving -= gone
            if gone == len(cos):
                self._blocks.popleft()
            else:
                self._blocks[0] = cos[gone:], sin[gone:]
        n = len(self._times)
        if n > self._summed:
            _check_sum(n)
            fresh = list(islice(reversed(self._times), n - self._summed))[::-1]
            for cos, sin in _column_chunks(np.array(fresh, dtype=np.int64), self.config):
                self._re += cos.sum(axis=0)
                self._im += sin.sum(axis=0)
                if self.horizon_ns is not None:
                    self._blocks.append((cos, sin))
            self._summed = n
        return _amplitude(self._re, self._im)

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
