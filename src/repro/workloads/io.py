"""Block-I/O service with contention-dependent latency.

A media player periodically refills its input buffer through the kernel's
I/O path.  The request itself is cheap, but completion requires kernel
worker threads (block layer, filesystem journal, readahead) to get CPU —
threads that live in the best-effort class.  On an idle system a refill
completes in a few milliseconds; when reservations plus desktop activity
contend for the best-effort residual, the very same refill can stall the
player for several of its periods.

:class:`Disk` models that path: a best-effort daemon process services a
FIFO of requests, charging a fixed CPU cost per request.  Its *latency*
is therefore an emergent property of scheduler contention — exactly the
load-coupling that degrades a legacy player's event-train regularity in
the paper's Table 2 experiment.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.instructions import Compute, Fire, Syscall, WaitEvent
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS


@dataclass
class DiskConfig:
    """Service parameters of the I/O daemon."""

    #: CPU cost to service one request, ns
    service_cost: int = 4 * MS
    #: multiplicative jitter on the service cost
    jitter: float = 0.4
    seed: int = 31

    def __post_init__(self) -> None:
        if self.service_cost <= 0:
            raise ValueError("service_cost must be positive")
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")


class Disk:
    """FIFO request queue drained by a best-effort daemon process."""

    _WORK_EVENT = "disk:work"

    def __init__(self, kernel: Kernel, config: DiskConfig | None = None, *, name: str = "kblockd") -> None:
        self.kernel = kernel
        self.config = config or DiskConfig()
        self._queue: deque[str] = deque()
        self._rng = np.random.default_rng(self.config.seed)
        self._seq = 0
        #: total requests completed
        self.completed = 0
        self.daemon: Process = kernel.spawn(name, self._daemon())

    def submit(self) -> str:
        """Enqueue a request; returns the completion event key.

        The caller should immediately block on ``WaitEvent(key)`` (see
        :meth:`read_instruction`); on a single CPU no other process can
        run in between, so the completion cannot be lost.
        """
        self._seq += 1
        key = f"disk:done:{self._seq}"
        self._queue.append(key)
        self.kernel.fire_event(self._WORK_EVENT)
        return key

    def read_instruction(self) -> Syscall:
        """A blocking ``read`` bound to a freshly submitted request."""
        return Syscall(SyscallNr.READ, block=WaitEvent(self.submit()))

    def _daemon(self) -> Program:
        cfg = self.config
        while True:
            if not self._queue:
                yield Syscall(SyscallNr.SELECT, block=WaitEvent(self._WORK_EVENT))
                continue
            key = self._queue.popleft()
            cost = max(1, int(self._rng.normal(cfg.service_cost, cfg.jitter * cfg.service_cost)))
            yield Compute(cost)
            self.completed += 1
            yield Fire(key)
