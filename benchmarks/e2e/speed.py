"""How fast the host runs while a pass runs, sampled in every process doing its work.

On the sizing host (a two-vCPU VM on a shared machine) each vCPU runs
interpreter code up to about twice as slowly at times, independently of
the other one, for a second or so at a time.  A reference loop timed
once after a pass samples one vCPU at one instant, so it tracks such a
pass poorly.  This module instead samples all through the pass:

- every ``INTERVAL_S`` of CPU time (``ITIMER_PROF``), a ``SIGPROF``
  handler times a fixed loop (:func:`_sample`) in thread CPU time;
- the process that calls :func:`start` samples itself, and so does every
  process it forks afterwards (the fleet and tune pools' workers), each
  into its own slot of a shared anonymous mapping.

:func:`slowness` is then the sample time between two :func:`reading`
calls over ``NOMINAL_SAMPLE_S``: about 1.0 on the sizing host's fast
vCPUs and 2.0 on its slow ones.  A pass's wall time over its slowness
reads as seconds at nominal speed.  Samples come at even steps of CPU
time, not of work, so the sample time is their harmonic mean: a pass
half on a fast and half on a slow vCPU did 0.75 of a fast pass's work
per second, not 1/1.5.

The loop uses nothing from ``repro``, so no change under ``src/`` can
move it, and it allocates one small list per sample, so it cannot make
the collector run more often.  Sampling costs about 1.5% of each
process's CPU time.
"""

from __future__ import annotations

import heapq
import mmap
import os
import signal
import struct
import time

#: CPU time of one process between two of its samples
INTERVAL_S = 0.02
#: loop iterations run untimed before each sample, to bring the loop's
#: code and data back into cache: a sample must not depend on how much
#: of the cache the workload used
WARMUP_ITERATIONS = 100
#: loop iterations per sample
SAMPLE_ITERATIONS = 600
#: seconds one sample takes on the sizing host's fast vCPUs (CPython 3.11)
NOMINAL_SAMPLE_S = 0.00024
#: per-process slots: the calling process, then its forked children in turn
SLOTS = 64

_SLOT = struct.Struct("dd")  # samples, sum of 1 / sample seconds
_HEAP = list(range(0, 1 << 20, 1 << 14))
_TABLE = dict.fromkeys(range(256), 0)

_shm: mmap.mmap | None = None
_slot = 0
_next_child_slot = 0


def _work(iterations: int) -> None:
    heap = _HEAP.copy()
    table = _TABLE
    x = 12345
    for i in range(iterations):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        heapq.heapreplace(heap, x >> 11)
        table[i & 255] = x


def _sample() -> float:
    """Thread CPU seconds of one warm run of the loop."""
    _work(WARMUP_ITERATIONS)
    t0 = time.thread_time()
    _work(SAMPLE_ITERATIONS)
    return time.thread_time() - t0


def _on_sigprof(signum, frame) -> None:
    # never raise here: it would surface inside the workload
    rate = 1.0 / max(_sample(), 1e-9)
    offset = _slot * _SLOT.size
    n, rates = _SLOT.unpack_from(_shm, offset)
    _SLOT.pack_into(_shm, offset, n + 1, rates + rate)


def _arm() -> None:
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def _before_fork() -> None:
    global _next_child_slot
    # slot 0 stays the caller's; live children never share a slot
    _next_child_slot = _next_child_slot % (SLOTS - 1) + 1


def _after_fork_in_child() -> None:
    global _slot
    _slot = _next_child_slot
    _arm()


def start() -> None:
    """Sample this process, and every process it forks from now on."""
    global _shm
    if _shm is not None:
        return
    _shm = mmap.mmap(-1, SLOTS * _SLOT.size)
    signal.signal(signal.SIGPROF, _on_sigprof)
    os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
    _arm()


def stop() -> None:
    """Stop sampling this process: the interpreter's shutdown drops the
    handler, and an unhandled ``SIGPROF`` would then kill the process."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def reading() -> tuple[float, float]:
    """Samples, and the sum of their 1 / seconds, so far in every process.

    A forked child adds to the slot it was given, and never clears it,
    so the sums only grow.
    """
    n = rates = 0.0
    for offset in range(0, len(_shm), _SLOT.size):
        slot_n, slot_rates = _SLOT.unpack_from(_shm, offset)
        n += slot_n
        rates += slot_rates
    return n, rates


def slowness(since: tuple[float, float], until: tuple[float, float] | None = None) -> float:
    """Harmonic mean sample time between two readings, over the nominal one."""
    n, rates = until or reading()
    n -= since[0]
    rates -= since[1]
    if not n:
        # too short a stretch for the timer to fire: sample once now
        n, rates = 1, 1.0 / _sample()
    return n / rates / NOMINAL_SAMPLE_S
