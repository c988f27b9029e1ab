"""Canonical system-call mixes.

Figure 4 of the paper shows the call statistics of a three-minute mplayer
run: the trace is dominated by ``ioctl`` (the ALSA audio path through
libasound), followed by time queries and file I/O.  ``MPLAYER_CALL_MIX``
encodes those proportions; the player models sample from it so a simulated
trace reproduces the same histogram shape.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import TypeVar

import numpy as np

from repro.sim.syscalls import SyscallNr

_T = TypeVar("_T")

#: Relative frequency of each call in an mplayer audio-playback trace.
#: Dominated by ioctl per Figure 4; proportions are approximate (read off
#: the published histogram) and normalised at import time.
MPLAYER_CALL_MIX: dict[SyscallNr, float] = {
    SyscallNr.IOCTL: 0.62,
    SyscallNr.GETTIMEOFDAY: 0.10,
    SyscallNr.CLOCK_GETTIME: 0.07,
    SyscallNr.READ: 0.08,
    SyscallNr.WRITE: 0.05,
    SyscallNr.SELECT: 0.03,
    SyscallNr.FUTEX: 0.02,
    SyscallNr.LSEEK: 0.02,
    SyscallNr.MUNMAP: 0.01,
}

_total = sum(MPLAYER_CALL_MIX.values())
MPLAYER_CALL_MIX = {k: v / _total for k, v in MPLAYER_CALL_MIX.items()}

_CALLS = list(MPLAYER_CALL_MIX.keys())
_WEIGHTS = np.array([MPLAYER_CALL_MIX[c] for c in _CALLS])

#: precomputed inverse-cdf table, mirroring what ``Generator.choice(p=...)``
#: builds per call (cumsum then normalise by the last entry).  Sampling
#: through it consumes exactly the same ``rng.random`` variates as
#: ``rng.choice(len(_CALLS), size=n, p=_WEIGHTS)``, so the draws are
#: bit-identical to the original implementation — just without numpy's
#: per-call validation of ``p``, which dominated the cost of short bursts.
#: Held as a Python list: ``bisect_right`` on it finds the index
#: ``searchsorted(side="right")`` finds, without an array round trip.
_cumsum = _WEIGHTS.cumsum()
_CDF: list[float] = (_cumsum / _cumsum[-1]).tolist()


def sample_call(rng: np.random.Generator) -> SyscallNr:
    """Draw one system call according to the mplayer mix."""
    return _CALLS[bisect_right(_CDF, rng.random())]


def sample_burst(rng: np.random.Generator, n: int, table: Sequence[_T]) -> list[_T]:
    """Draw a burst of ``n`` calls according to the mplayer mix.

    Returns entries of ``table``, which holds one item per call of
    :data:`MPLAYER_CALL_MIX`, in its order: the players pass their
    prebuilt ``Syscall`` instructions, so a draw hashes no ``SyscallNr``
    and builds no instruction.
    """
    cdf = _CDF
    return [table[bisect_right(cdf, u)] for u in rng.random(n).tolist()]
