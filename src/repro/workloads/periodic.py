"""Synthetic periodic real-time tasks.

The background load of Tables 2 and 3 is "synthetically generated by
starting instances of a simple real-time periodic application": spin for
``C``, sleep until the next multiple of ``P``.  Each instance is meant to
run inside its own static reservation (see
:meth:`repro.core.runtime.SelfTuningRuntime.add_static_reservation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.cycles import GridIndex, ProgramCycleInfo, register_cycle_adapter
from repro.sim.instructions import Compute, SleepUntil, Syscall
from repro.sim.process import Program
from repro.sim.syscalls import SyscallNr
from repro.sim.time import MS


@dataclass
class PeriodicTaskConfig:
    """(C, P) of one synthetic periodic task."""

    #: per-job execution time, ns
    cost: int
    #: activation period, ns
    period: int
    #: multiplicative jitter on the job cost
    cost_jitter: float = 0.0
    #: phase offset of the release grid, ns
    phase: int = 0
    #: non-blocking syscalls issued around each job (clock queries etc.);
    #: these are what make the load visible to an *unfiltered* tracer
    extra_syscalls: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.cost <= 0 or self.period <= 0:
            raise ValueError("cost and period must be positive")
        if self.cost > self.period:
            raise ValueError(f"cost {self.cost} exceeds period {self.period}")
        if not 0 <= self.cost_jitter < math.inf:
            raise ValueError(f"cost_jitter must be finite and >= 0, got {self.cost_jitter}")

    @property
    def utilisation(self) -> float:
        """CPU fraction C/P the task demands."""
        return self.cost / self.period


def periodic_task(config: PeriodicTaskConfig, n_jobs: int | None = None) -> Program:
    """Program releasing jobs on the absolute grid ``phase + k*period``.

    Runs forever when ``n_jobs`` is None (the usual background-load case).
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    # loop-invariant instructions built once (immutable to the kernel)
    clock_gettime = Syscall(SyscallNr.CLOCK_GETTIME)
    fixed_cost = Compute(cfg.cost)
    # ``loc + scale * standard_normal()`` is numpy's ``normal(loc, scale)``
    # to the bit, without its per-call argument handling
    cost_scale = cfg.cost_jitter * cfg.cost
    # the release-grid position lives in a holder (not a generator local)
    # so the fast-forward layer can relocate the program on its grid
    grid = GridIndex()

    def body() -> Program:
        while n_jobs is None or grid.index < n_jobs:
            release = cfg.phase + grid.index * cfg.period
            yield Syscall(SyscallNr.CLOCK_NANOSLEEP, block=SleepUntil(release))
            before = cfg.extra_syscalls // 2 + cfg.extra_syscalls % 2
            for _ in range(before):
                yield clock_gettime
            if cfg.cost_jitter > 0:
                cost = max(1, int(cfg.cost + cost_scale * rng.standard_normal()))
                yield Compute(cost)
            else:
                yield fixed_cost
            for _ in range(cfg.extra_syscalls - before):
                yield clock_gettime
            grid.index += 1

    return register_cycle_adapter(
        body(),
        ProgramCycleInfo(
            period=cfg.period,
            get_index=lambda: grid.index,
            advance=grid.advance,
            jobs_total=n_jobs,
            rng=rng if cfg.cost_jitter > 0 else None,
        ),
    )


def load_set(
    total_utilisation: float,
    *,
    n_tasks: int = 3,
    base_period: int = 8 * MS,
    period_ratio: float = 1.6,
    seed: int = 11,
) -> list[PeriodicTaskConfig]:
    """Build a set of periodic tasks with the given cumulative utilisation.

    Periods are spread geometrically from ``base_period`` by
    ``period_ratio``; utilisation is split evenly.  Handy for load-sweep
    experiments (Table 3).  A ratio of 2.0 keeps the periods commensurate
    (small hyperperiod), which is what lets :mod:`repro.sim.cycles`
    fast-forward a long-horizon sweep.
    """
    if not 0.0 < total_utilisation < 1.0:
        raise ValueError(f"total_utilisation must be in (0, 1), got {total_utilisation}")
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if period_ratio < 1.0:
        raise ValueError(f"period_ratio must be >= 1.0, got {period_ratio}")
    share = total_utilisation / n_tasks
    configs = []
    for i in range(n_tasks):
        period = int(base_period * (period_ratio**i))
        cost = max(1, int(share * period))
        configs.append(PeriodicTaskConfig(cost=cost, period=period, phase=i * period // n_tasks, seed=seed + i))
    return configs
