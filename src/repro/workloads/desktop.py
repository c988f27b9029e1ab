"""Background desktop activity.

The paper's testbed is a desktop Ubuntu machine: besides mplayer and the
synthetic real-time load there is always an X server, a window manager,
the shell and the tracing tool competing in the best-effort class.  That
competition is what turns a modest reserved load into multi-millisecond
scheduling latency for a SCHED_OTHER media player — with an idle desktop
the player is scheduled almost immediately, while at 60% reserved load the
leftover CPU is contended and wake-up-to-run latencies stretch.

:func:`desktop_load` models that activity as a duty-cycled best-effort
spinner: ``chunk`` of CPU, then a sleep sized for the target utilisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.cycles import ProgramCycleInfo, register_cycle_adapter
from repro.sim.instructions import Compute, SleepFor, Syscall
from repro.sim.process import Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS


@dataclass
class DesktopLoadConfig:
    """Duty-cycled best-effort background activity."""

    #: fraction of the CPU the activity would use on an idle machine
    duty: float = 0.15
    #: median CPU burst length, ns
    chunk: int = 3 * MS
    #: lognormal sigma of the burst length: bursts are heavy-tailed
    #: (an X server mostly paints small damage regions but occasionally
    #: spends tens of milliseconds on a full redraw)
    burst_sigma: float = 1.2
    seed: int = 23

    def __post_init__(self) -> None:
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")
        if not 0 <= self.burst_sigma < math.inf:
            raise ValueError(f"burst_sigma must be finite and >= 0, got {self.burst_sigma}")


def desktop_load(config: DesktopLoadConfig | None = None) -> Program:
    """Endless best-effort program alternating bursts and sleeps."""
    cfg = config or DesktopLoadConfig()
    rng = np.random.default_rng(cfg.seed)

    def body() -> Program:
        while True:
            burst = max(1, int(cfg.chunk * rng.lognormal(0.0, cfg.burst_sigma)))
            yield Compute(burst)
            # sleep sized from the burst actually drawn, preserving duty
            pause = max(1, int(burst * (1.0 - cfg.duty) / cfg.duty))
            yield Syscall(SyscallNr.SELECT, block=SleepFor(pause))

    # aperiodic by construction: registering period=None makes any mix
    # containing desktop interference ineligible for fast-forward
    return register_cycle_adapter(body(), ProgramCycleInfo(period=None, rng=rng))


def desktop_suite(seed: int = 23) -> list[DesktopLoadConfig]:
    """The canonical desktop mix: X server, window manager, shell, misc.

    Four duty-cycled best-effort processes totalling ~20% of an idle CPU.
    On an idle system they barely disturb a player; once reservations
    shrink the best-effort residual, queueing among them is what stretches
    a legacy player's scheduling latency to a sizeable fraction of its
    period — the degradation regime of Table 2 / Figure 12.
    """
    mix = [
        (0.06, 3 * MS),  # X server: larger rendering bursts
        (0.05, 2 * MS),  # window manager / compositor
        (0.04, int(1.5 * MS)),  # shell, terminal
        (0.05, int(2.5 * MS)),  # misc daemons
    ]
    return [
        DesktopLoadConfig(duty=duty, chunk=chunk, seed=seed + i)
        for i, (duty, chunk) in enumerate(mix)
    ]
