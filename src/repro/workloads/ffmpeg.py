"""Batch transcoder model (the Table 1 workload).

``ffmpeg`` transcoding a video is CPU-bound with a steady stream of small
file-I/O system calls (read the input, write the output, seek).  There is
no periodic structure and no sleeping: the run's wall-clock time on an
otherwise idle machine equals its CPU demand plus whatever the attached
tracer adds — which is exactly what Table 1 measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.instructions import Compute, Syscall
from repro.sim.process import Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS


@dataclass
class FfmpegConfig:
    """Transcode parameters.

    Defaults give a ~21 s CPU-seconds run (7000 frames at 3 ms), matching
    the scale of the paper's baseline (21.09 s NOTRACE).
    """

    n_frames: int = 7000
    #: mean transcode cost per frame, ns
    frame_cost: int = 3 * MS
    #: multiplicative jitter on each frame's cost
    cost_jitter: float = 0.05
    #: syscalls issued per frame (reads + writes + seeks)
    calls_per_frame: int = 8
    seed: int = 3

    def __post_init__(self) -> None:
        if self.n_frames <= 0 or self.frame_cost <= 0:
            raise ValueError("n_frames and frame_cost must be positive")
        if self.calls_per_frame < 0:
            raise ValueError("calls_per_frame must be >= 0")
        if not 0 <= self.cost_jitter < math.inf:
            raise ValueError(f"cost_jitter must be finite and >= 0, got {self.cost_jitter}")

    @property
    def nominal_cpu(self) -> int:
        """Expected total CPU demand of the run, ns (compute only)."""
        return self.n_frames * self.frame_cost


_IO_CYCLE = [
    SyscallNr.READ,
    SyscallNr.READ,
    SyscallNr.LSEEK,
    SyscallNr.READ,
    SyscallNr.WRITE,
    SyscallNr.WRITE,
    SyscallNr.FSTAT,
    SyscallNr.WRITE,
]


def ffmpeg_transcode(config: FfmpegConfig | None = None) -> Program:
    """Program transcoding per ``config``; exits when the file is done."""
    cfg = config or FfmpegConfig()
    rng = np.random.default_rng(cfg.seed)

    def body() -> Program:
        for _frame in range(cfg.n_frames):
            cost = max(1, int(rng.normal(cfg.frame_cost, cfg.cost_jitter * cfg.frame_cost)))
            # interleave the I/O through the frame's compute
            calls = cfg.calls_per_frame
            slice_cost = cost // max(calls, 1)
            for i in range(calls):
                yield Compute(slice_cost)
                yield Syscall(_IO_CYCLE[i % len(_IO_CYCLE)])
            yield Compute(cost - slice_cost * max(calls, 1))

    return body()
