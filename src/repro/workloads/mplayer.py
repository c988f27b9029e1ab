"""Generative mplayer models.

§4.2's founding assumption: "the real-time application generates periodic
bursts of system calls and ... the bursts are mostly concentrated at the
beginning and at the end of the period to perform the I/O operations."
Both models below produce exactly that structure:

- :class:`AudioPlayer` — mp3 playback.  Every ~30.77 ms (32.5 Hz, the
  frequency the paper's analyser detects for its mp3 runs) the player
  wakes, issues a burst of reads/ioctls, decodes the frame, issues a burst
  of ALSA ``ioctl`` writes, and blocks until the next period.

- :class:`VideoPlayer` — 25 fps playback.  Same shape at 40 ms, with the
  decode cost following a configurable MPEG GOP pattern (expensive
  I-frames, mid P-frames, cheap B-frames — §4.4's remark 1 discusses why
  this pattern stresses a purely average-based controller).  Each
  displayed frame emits a ``"frame_displayed"`` label the metrics layer
  timestamps into the paper's inter-frame-time series.

Programs self-pace against an absolute release grid, as a real player
does when it syncs to the audio clock: if decoding falls behind, the
player skips the sleep and decodes back-to-back until it catches up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.cycles import GridIndex, ProgramCycleInfo, register_cycle_adapter
from repro.sim.instructions import Compute, Label, SleepUntil, Syscall
from repro.sim.process import Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS, US
from repro.workloads.mixes import MPLAYER_CALL_MIX, sample_burst

#: 32.5 Hz — the fundamental the paper repeatedly detects for mp3 playback
AUDIO_PERIOD_NS = round(1e9 / 32.5)

#: default MPEG group-of-pictures structure
DEFAULT_GOP = "IBBPBBPBBPBB"


@dataclass
class AudioPlayerConfig:
    """Parameters of the mp3-playback model.

    One mp3 frame (~30.77 ms) is decoded per period, but the decoded
    samples are pushed to ALSA in ``writes_per_period`` device-sized
    chunks (real players write one ALSA period at a time, a fraction of an
    mp3 frame).  The spectrum of the resulting event train therefore shows
    a strong line at ``writes_per_period × 32.5 Hz`` *in addition to* the
    32.5 Hz fundamental carried by the once-per-period input/decode burst
    — exactly the 32.5 / 65 / 97.5 Hz peak family of the paper's
    Figure 10.  When interference smears the decode burst, the fundamental
    collapses while the device-write grid survives, which is how the
    detector starts reporting integer multiples of the true frequency
    (Table 2, Figure 12).
    """

    period: int = AUDIO_PERIOD_NS
    #: mean decode cost per audio frame, ns
    decode_cost: int = 2 * MS
    #: multiplicative jitter on the decode cost (std dev as a fraction)
    decode_jitter: float = 0.15
    #: device writes per period (ALSA chunks per mp3 frame)
    writes_per_period: int = 3
    #: syscalls per device-write burst (ioctl-dominated)
    write_burst: int = 3
    #: syscalls in the once-per-period input/decode burst
    start_burst: int = 6
    #: user-mode compute between consecutive burst calls, ns
    intra_burst_gap: int = 40 * US
    #: release jitter (std dev, ns) of each wake-up instant
    release_jitter: int = 200 * US
    #: playback start offset (phase), ns
    phase: int = 0
    #: refill the input buffer every this many periods (0 disables);
    #: refills block on the :class:`repro.workloads.io.Disk` daemon, whose
    #: latency grows with best-effort contention
    refill_every: int = 8
    #: blocking reads per refill
    refill_reads: int = 2
    seed: int = 1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.decode_cost < 0 or self.intra_burst_gap < 0:
            raise ValueError("costs must be non-negative")
        if self.writes_per_period < 1 or self.write_burst < 0:
            raise ValueError("writes_per_period must be >= 1 and write_burst >= 0")
        if not (0 <= self.decode_jitter < math.inf and 0 <= self.release_jitter < math.inf):
            raise ValueError("decode_jitter and release_jitter must be finite and >= 0")

    @property
    def frequency(self) -> float:
        """Fundamental frequency of the playback, Hz."""
        return 1e9 / self.period


class AudioPlayer:
    """mp3 playback: periodic syscall bursts around a small decode."""

    def __init__(self, config: AudioPlayerConfig | None = None) -> None:
        self.config = config or AudioPlayerConfig()
        self.frames_played = 0

    def program(self, n_frames: int | None = None, disk=None) -> Program:
        """Generator playing ``n_frames`` audio frames (forever if None).

        With ``disk`` (a :class:`repro.workloads.io.Disk`) the player
        periodically refills its input buffer through blocking reads whose
        latency depends on best-effort contention.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        slot_len = cfg.period // cfg.writes_per_period
        # instructions are immutable to the kernel, so the loop-invariant
        # ones are built once and yielded repeatedly (a Syscall per burst
        # call was the single biggest allocation source of the simulator)
        gap = Compute(cfg.intra_burst_gap)
        ioctl = Syscall(SyscallNr.IOCTL)
        burst_calls = [Syscall(nr) for nr in MPLAYER_CALL_MIX]
        # ``loc + scale * standard_normal()`` is numpy's ``normal(loc,
        # scale)`` to the bit, without its per-call argument handling
        decode_scale = cfg.decode_jitter * cfg.decode_cost
        # release-grid position in a holder so fast-forward can relocate
        # the player; the grid index is re-read at every use
        grid = GridIndex()
        slot_pos = GridIndex()

        def body() -> Program:
            while n_frames is None or grid.index < n_frames:
                for s in range(cfg.writes_per_period):
                    slot_pos.index = s
                    slot = cfg.phase + grid.index * cfg.period + s * slot_len
                    if cfg.release_jitter > 0:
                        slot += int(abs(cfg.release_jitter * rng.standard_normal()))
                    # block until the device has room for the next chunk
                    yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(slot))
                    if s == 0:
                        if disk is not None and cfg.refill_every > 0 and grid.index % cfg.refill_every == 0:
                            for _ in range(cfg.refill_reads):
                                yield disk.read_instruction()
                        # once per period: fetch input, query clocks, decode
                        for call in sample_burst(rng, cfg.start_burst, burst_calls):
                            yield gap
                            yield call
                        cost = max(1, int(cfg.decode_cost + decode_scale * rng.standard_normal()))
                        yield Compute(cost)
                    # push one device chunk (ioctl-heavy ALSA path)
                    for _ in range(cfg.write_burst):
                        yield gap
                        yield ioctl
                grid.index += 1
                self.frames_played += 1

        def _advance(frames: int) -> None:
            grid.advance(frames)
            self.frames_played += frames

        return register_cycle_adapter(
            body(),
            ProgramCycleInfo(
                # disk refills couple the player to best-effort contention,
                # which has no period: mark it un-extrapolatable
                period=cfg.period if disk is None else None,
                get_index=lambda: grid.index,
                advance=_advance,
                jobs_total=n_frames,
                rng=rng,
                extra_state=lambda: (slot_pos.index,),
            ),
        )


@dataclass
class VideoPlayerConfig:
    """Parameters of the 25 fps video-playback model."""

    #: frame period, ns (25 fps)
    period: int = 40 * MS
    #: decode cost of I / P / B frames, ns (≈22% mean utilisation, the
    #: scale of the paper's 800 MHz testbed playing a DVD-class movie)
    i_cost: int = 15 * MS
    p_cost: int = 11 * MS
    b_cost: int = 9 * MS
    #: multiplicative jitter on every frame's decode cost
    decode_jitter: float = 0.08
    #: GOP structure cycled over the stream
    gop: str = DEFAULT_GOP
    start_burst: int = 5
    end_burst: int = 4
    intra_burst_gap: int = 30 * US
    phase: int = 0
    seed: int = 2
    #: payload key emitted with each displayed frame
    display_label: str = "frame_displayed"

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not self.gop or any(c not in "IPB" for c in self.gop):
            raise ValueError(f"gop must be a non-empty string over 'IPB', got {self.gop!r}")
        if not 0 <= self.decode_jitter < math.inf:
            raise ValueError(f"decode_jitter must be finite and >= 0, got {self.decode_jitter}")

    def frame_cost(self, index: int) -> int:
        """Nominal decode cost of frame ``index`` per the GOP pattern."""
        kind = self.gop[index % len(self.gop)]
        return {"I": self.i_cost, "P": self.p_cost, "B": self.b_cost}[kind]

    @property
    def mean_cost(self) -> float:
        """Average decode cost over one GOP, ns."""
        return sum(self.frame_cost(i) for i in range(len(self.gop))) / len(self.gop)

    @property
    def utilisation(self) -> float:
        """Average CPU fraction the playback demands."""
        return self.mean_cost / self.period


class VideoPlayer:
    """25 fps playback with GOP-structured decode costs and IFT labels."""

    def __init__(self, config: VideoPlayerConfig | None = None) -> None:
        self.config = config or VideoPlayerConfig()
        self.frames_played = 0

    def program(self, n_frames: int | None = None) -> Program:
        """Generator decoding and displaying video frames (forever if None)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        grid = GridIndex()
        gop_len = len(cfg.gop)
        # loop-invariant instructions and per-GOP-position costs, built once
        gap = Compute(cfg.intra_burst_gap)
        burst_calls = [Syscall(nr) for nr in MPLAYER_CALL_MIX]
        gop_costs = [cfg.frame_cost(i) for i in range(gop_len)]

        def body() -> Program:
            while n_frames is None or grid.index < n_frames:
                target = cfg.phase + grid.index * cfg.period
                # sleep only if we are ahead of the playback grid
                yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(target))
                for call in sample_burst(rng, cfg.start_burst, burst_calls):
                    yield gap
                    yield call
                cost = gop_costs[grid.index % gop_len]
                cost = max(1, int(cost + cfg.decode_jitter * cost * rng.standard_normal()))
                yield Compute(cost)
                for call in sample_burst(rng, cfg.end_burst, burst_calls):
                    yield gap
                    yield call
                # blit: the instant the user sees the frame
                yield Label(cfg.display_label, {"frame": grid.index})
                grid.index += 1
                self.frames_played += 1

        def _advance(frames: int) -> None:
            grid.advance(frames)
            self.frames_played += frames

        return register_cycle_adapter(
            body(),
            ProgramCycleInfo(
                # the cost pattern repeats per GOP, not per frame
                period=cfg.period * gop_len,
                get_index=lambda: grid.index,
                advance=_advance,
                jobs_total=n_frames,
                rng=rng,
                extra_state=lambda: (grid.index % gop_len,),
            ),
        )
