"""A multi-threaded media player (the "vlc" validation case).

The paper validated period extraction "also on various other players …
including vlc".  Unlike the single-threaded mplayer models, this player
splits the pipeline into two threads, as real players do:

- a **decoder thread** that reads, decodes and hands frames over through
  a bounded queue;
- an **output thread** that waits for a decoded frame, blits it on the
  25 fps grid, and emits the ``frame_displayed`` label.

The threads communicate through the kernel's event mechanism (a condition
variable in real life).  Adopt the pair with
:meth:`repro.core.runtime.SelfTuningRuntime.adopt_group`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.cycles import GridIndex, ProgramCycleInfo, register_cycle_adapter
from repro.sim.instructions import Burst, Compute, Fire, Label, SleepUntil, Syscall, WaitEvent
from repro.sim.process import Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS, US


@dataclass
class VlcConfig:
    """Two-thread 25 fps playback parameters."""

    period: int = 40 * MS
    #: decode cost per frame (flatter than the mplayer GOP model: a
    #: pipelined decoder amortises I-frame peaks across the queue)
    decode_cost: int = 9 * MS
    decode_jitter: float = 0.12
    #: output-thread blit cost per frame
    blit_cost: int = 1 * MS
    #: decoded-frame queue capacity
    queue_depth: int = 4
    #: syscalls around each decoded frame (reads, seeks)
    decode_burst: int = 4
    #: syscalls around each blit (Xv/ALSA pokes)
    blit_burst: int = 3
    intra_burst_gap: int = 30 * US
    phase: int = 0
    seed: int = 9
    display_label: str = "frame_displayed"

    def __post_init__(self) -> None:
        if self.period <= 0 or self.queue_depth < 1:
            raise ValueError("period must be positive and queue_depth >= 1")
        if not 0 <= self.decode_jitter < math.inf:
            raise ValueError(f"decode_jitter must be finite and >= 0, got {self.decode_jitter}")
        for name in ("decode_cost", "blit_cost", "intra_burst_gap", "decode_burst", "blit_burst"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def utilisation(self) -> float:
        """Combined CPU fraction of both threads."""
        return (self.decode_cost + self.blit_cost) / self.period


#: per-process player counter: event keys must be unique per player within
#: a kernel (``id(self)`` could collide after the allocator reuses memory,
#: cross-waking unrelated players) and stable across identical runs
_PLAYER_SEQ = itertools.count()


class VlcPlayer:
    """Decoder + output threads around a bounded frame queue."""

    def __init__(self, config: VlcConfig | None = None) -> None:
        self.config = config or VlcConfig()
        self.frames_decoded = 0
        self.frames_displayed = 0
        self._queue: deque[int] = deque()
        self._seq = next(_PLAYER_SEQ)

    @property
    def _frame_ready(self) -> str:
        return f"vlc:{self._seq}:frame"

    @property
    def _slot_free(self) -> str:
        return f"vlc:{self._seq}:slot"

    def decoder_program(self, n_frames: int | None = None) -> Program:
        """The decoder thread: fill the queue, block when it is full."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        grid = GridIndex()
        # loop-invariant instructions, built once (immutable to the kernel);
        # the reads around a frame are one Burst
        wait_slot = Syscall(SyscallNr.FUTEX, block=WaitEvent(self._slot_free))
        gap = Compute(cfg.intra_burst_gap)
        read = Syscall(SyscallNr.READ)
        reads = Burst((gap, read) * cfg.decode_burst) if cfg.decode_burst else None
        frame_ready = Fire(self._frame_ready)
        # ``loc + scale * standard_normal()`` is numpy's ``normal(loc,
        # scale)`` to the bit, without its per-call argument handling
        decode_scale = cfg.decode_jitter * cfg.decode_cost

        def body() -> Program:
            while n_frames is None or grid.index < n_frames:
                while len(self._queue) >= cfg.queue_depth:
                    yield wait_slot
                if reads is not None:
                    yield reads
                if cfg.decode_jitter > 0:
                    cost = max(1, int(cfg.decode_cost + decode_scale * rng.standard_normal()))
                else:
                    cost = cfg.decode_cost
                yield Compute(cost)
                self._queue.append(grid.index)
                grid.index += 1
                self.frames_decoded += 1
                yield frame_ready
            # guard against a lost wake-up racing the very last frame
            yield frame_ready

        def _advance(frames: int) -> None:
            grid.advance(frames)
            self.frames_decoded += frames

        return register_cycle_adapter(
            body(),
            ProgramCycleInfo(
                # the decoder is paced by the output thread's grid through
                # the bounded queue, so it shares the playback period
                period=cfg.period,
                get_index=lambda: grid.index,
                advance=_advance,
                jobs_total=n_frames,
                rng=rng,
                extra_state=lambda: (len(self._queue),),
            ),
        )

    def output_program(self, n_frames: int | None = None) -> Program:
        """The output thread: blit one frame per 40 ms grid slot."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        grid = GridIndex()
        wait_frame = Syscall(SyscallNr.FUTEX, block=WaitEvent(self._frame_ready))
        slot_free = Fire(self._slot_free)
        gap = Compute(cfg.intra_burst_gap)
        ioctl = Syscall(SyscallNr.IOCTL)
        # the calls around a blit and the blit itself: one Burst
        blit = Burst((gap, ioctl) * cfg.blit_burst + (Compute(cfg.blit_cost),))

        def body() -> Program:
            while n_frames is None or grid.index < n_frames:
                target = cfg.phase + grid.index * cfg.period
                yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(target))
                while not self._queue:
                    yield wait_frame
                self._queue.popleft()
                yield slot_free
                yield blit
                yield Label(cfg.display_label, {"frame": grid.index})
                grid.index += 1
                self.frames_displayed += 1

        def _advance(frames: int) -> None:
            grid.advance(frames)
            self.frames_displayed += frames

        return register_cycle_adapter(
            body(),
            ProgramCycleInfo(
                period=cfg.period,
                get_index=lambda: grid.index,
                advance=_advance,
                jobs_total=n_frames,
                rng=rng,
            ),
        )
