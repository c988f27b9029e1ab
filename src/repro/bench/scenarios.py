"""Canonical deterministic scenarios for digests and throughput benchmarks.

Every scenario is a fixed mix — a seeded :class:`~repro.workloads.mplayer.
AudioPlayer` (the paper's mp3 workload), a tightly reserved synthetic
periodic task whose cost jitter forces budget exhaustions, and a
best-effort periodic disturbance — dispatched by one of the five
schedulers under test.  Given the same name, :func:`build_scenario`
produces bit-identical runs on every host and Python version, which is
what lets :mod:`repro.bench.golden` pin SHA-256 digests across PRs.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.sched import (
    CbsScheduler,
    EdfScheduler,
    FixedPriorityScheduler,
    RoundRobinScheduler,
    ServerParams,
    StrideScheduler,
)
from repro.sim import Kernel, MS, SEC
from repro.sim.time import US
from repro.workloads import AudioPlayer, PeriodicTaskConfig, periodic_task
from repro.workloads.mplayer import AudioPlayerConfig

#: simulated duration every golden scenario runs for, ns
GOLDEN_DURATION_NS = 2 * SEC

#: plenty of frames for the whole window (~65 periods fit in 2 s)
_N_FRAMES = 200

#: the reserved disturbance: 4 ms nominal cost every 20 ms, with enough
#: jitter that a Q=4 ms reservation exhausts on the heavy jobs
_RT_TASK = PeriodicTaskConfig(cost=4 * MS, period=20 * MS, cost_jitter=0.15, seed=5)

#: best-effort disturbance competing in the background class
_BG_TASK = PeriodicTaskConfig(cost=3 * MS, period=15 * MS, phase=2 * MS, seed=9)


def _spawn_mix(kernel: Kernel):
    """The fixed mplayer + disturbance mix shared by every scheduler."""
    player = AudioPlayer(AudioPlayerConfig(seed=3))
    mp3 = kernel.spawn("mp3", player.program(_N_FRAMES))
    rt = kernel.spawn("rt", periodic_task(_RT_TASK, n_jobs=95))
    bg = kernel.spawn("bg", periodic_task(_BG_TASK, n_jobs=130))
    return mp3, rt, bg


def _cbs(policy: str) -> Kernel:
    scheduler = CbsScheduler()
    kernel = Kernel(scheduler)
    mp3, rt, _bg = _spawn_mix(kernel)
    # budgets sized to the mean demand, so jitter spills over the edge and
    # all three exhaustion policies actually branch
    srv_mp3 = scheduler.create_server(
        ServerParams(budget=2500 * US, period=30_769 * US, policy=policy), "mp3"
    )
    scheduler.attach(mp3, srv_mp3)
    srv_rt = scheduler.create_server(
        ServerParams(budget=4 * MS, period=20 * MS, policy=policy), "rt"
    )
    scheduler.attach(rt, srv_rt)
    return kernel


def _edf() -> Kernel:
    scheduler = EdfScheduler()
    kernel = Kernel(scheduler)
    mp3, rt, _bg = _spawn_mix(kernel)
    # mp3 gets a deadline tighter than its period, so the EDF order often
    # inverts the rate-monotonic one and the schedule diverges from _fp's
    scheduler.attach(mp3, 12 * MS)
    scheduler.attach(rt, 20 * MS)
    return kernel


def _fp() -> Kernel:
    scheduler = FixedPriorityScheduler()
    kernel = Kernel(scheduler)
    mp3, rt, bg = _spawn_mix(kernel)
    # rate monotonic: rt (20 ms) above mp3 (30.77 ms) above bg (15 ms
    # would rank first, but it is the best-effort stand-in: bottom)
    scheduler.attach(rt, 0)
    scheduler.attach(mp3, 1)
    scheduler.attach(bg, 2)
    return kernel


def _stride() -> Kernel:
    scheduler = StrideScheduler()
    kernel = Kernel(scheduler)
    mp3, rt, bg = _spawn_mix(kernel)
    scheduler.attach(mp3, 3)
    scheduler.attach(rt, 4)
    scheduler.attach(bg, 1)
    return kernel


def _rr() -> Kernel:
    kernel = Kernel(RoundRobinScheduler())
    _spawn_mix(kernel)
    return kernel


#: the scenarios the golden digests pin: CBS under all three exhaustion
#: policies, plus the four non-reservation schedulers
GOLDEN_SCENARIOS: dict[str, Callable[[], Kernel]] = {
    "cbs-hard": lambda: _cbs("hard"),
    "cbs-soft": lambda: _cbs("soft"),
    "cbs-background": lambda: _cbs("background"),
    "edf": _edf,
    "fp": _fp,
    "stride": _stride,
    "rr": _rr,
}


# ----------------------------------------------------------------------
# purely periodic scenarios (the fast-forwardable steady-state mixes)
# ----------------------------------------------------------------------
#: three infinite zero-jitter tasks with commensurate periods: hyperperiod
#: 32 ms, so :mod:`repro.sim.cycles` detects the steady-state cycle within
#: a handful of boundaries
_PERIODIC_TASKS = (
    PeriodicTaskConfig(cost=2 * MS, period=8 * MS, seed=21),
    PeriodicTaskConfig(cost=3 * MS, period=16 * MS, phase=1 * MS, seed=22),
    PeriodicTaskConfig(cost=4 * MS, period=32 * MS, phase=3 * MS, seed=23),
)


def _spawn_periodic(kernel: Kernel):
    """The fixed purely periodic mix shared by every scheduler."""
    t1 = kernel.spawn("p8", periodic_task(_PERIODIC_TASKS[0]))
    t2 = kernel.spawn("p16", periodic_task(_PERIODIC_TASKS[1]))
    t3 = kernel.spawn("p32", periodic_task(_PERIODIC_TASKS[2]))
    return t1, t2, t3


def _periodic_cbs(policy: str) -> Kernel:
    scheduler = CbsScheduler()
    kernel = Kernel(scheduler)
    t1, t2, t3 = _spawn_periodic(kernel)
    srv1 = scheduler.create_server(
        ServerParams(budget=2500 * US, period=8 * MS, policy=policy), "p8"
    )
    scheduler.attach(t1, srv1)
    # "background" gets a budget below the 3 ms job cost so the exhaustion
    # path fires every job yet the schedule stays cyclic (the task finishes
    # in the best-effort class before its next release); hard/soft get a
    # feasible budget — an under-provisioned hard/soft server would lag
    # further behind every period and never reach a steady state
    t2_budget = 2500 * US if policy == "background" else 3500 * US
    srv2 = scheduler.create_server(
        ServerParams(budget=t2_budget, period=16 * MS, policy=policy), "p16"
    )
    scheduler.attach(t2, srv2)
    # t3 stays in the best-effort background class
    return kernel


def _periodic_edf() -> Kernel:
    scheduler = EdfScheduler()
    kernel = Kernel(scheduler)
    t1, t2, _t3 = _spawn_periodic(kernel)
    scheduler.attach(t1, 8 * MS)
    scheduler.attach(t2, 16 * MS)
    return kernel


def _periodic_fp() -> Kernel:
    scheduler = FixedPriorityScheduler()
    kernel = Kernel(scheduler)
    t1, t2, t3 = _spawn_periodic(kernel)
    scheduler.attach(t1, 0)
    scheduler.attach(t2, 1)
    scheduler.attach(t3, 2)
    return kernel


def _periodic_stride() -> Kernel:
    scheduler = StrideScheduler()
    kernel = Kernel(scheduler)
    t1, t2, t3 = _spawn_periodic(kernel)
    scheduler.attach(t1, 4)
    scheduler.attach(t2, 2)
    scheduler.attach(t3, 1)
    return kernel


def _periodic_rr() -> Kernel:
    kernel = Kernel(RoundRobinScheduler())
    _spawn_periodic(kernel)
    return kernel


#: the eligible fast-forward scenarios: same policy spread as the golden
#: set, over the purely periodic mix
PERIODIC_SCENARIOS: dict[str, Callable[[], Kernel]] = {
    "periodic-cbs-hard": lambda: _periodic_cbs("hard"),
    "periodic-cbs-soft": lambda: _periodic_cbs("soft"),
    "periodic-cbs-background": lambda: _periodic_cbs("background"),
    "periodic-edf": _periodic_edf,
    "periodic-fp": _periodic_fp,
    "periodic-stride": _periodic_stride,
    "periodic-rr": _periodic_rr,
}

#: every canonical scenario (golden digests + periodic fast-forward mixes)
ALL_SCENARIOS: dict[str, Callable[[], Kernel]] = {**GOLDEN_SCENARIOS, **PERIODIC_SCENARIOS}


def build_scenario(name: str) -> Kernel:
    """Fresh kernel for canonical scenario ``name`` (see :data:`ALL_SCENARIOS`)."""
    try:
        return ALL_SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(ALL_SCENARIOS)}"
        ) from None
