"""Property-based fast-forward equivalence over random periodic task sets.

Hypothesis generates small zero-jitter periodic mixes with commensurate
periods under each scheduler family and asserts the one property the
whole of :mod:`repro.sim.cycles` rests on: fast-forwarding is observably
identical to full stepping — for every task set, whether or not a cycle
was detected.  A second property pins the negative space: aperiodic
desktop interference must always disable the fast path.  A third pins
the replay primitive underneath: ``add_cycles(samples, K)`` on a latency
accumulator is bit-for-bit ``K`` rounds of ``add()``, whether its Welford
replay is computed or served from the per-process replay cache.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.golden import attach_digest
from repro.fleet.summary import _SampleStats
from repro.sched import (
    EdfScheduler,
    FixedPriorityScheduler,
    RoundRobinScheduler,
    StrideScheduler,
)
from repro.sim import Kernel, MS, SEC
from repro.sim.cycles import run_fast_forward
from repro.sim.process import LatencyStats, _replay
from repro.workloads import PeriodicTaskConfig, periodic_task

#: commensurate period menu: any subset folds to a 32 ms hyperperiod
PERIOD_MENU = (8 * MS, 16 * MS, 32 * MS)

HORIZON = SEC // 2

task_sets = st.lists(
    st.tuples(
        st.sampled_from(PERIOD_MENU),
        st.integers(min_value=5, max_value=25),  # cost, % of period
        st.integers(min_value=0, max_value=7),  # phase, ms
    ),
    min_size=1,
    max_size=3,
)

schedulers = st.sampled_from(["rr", "fp", "stride", "edf"])


def _build(kind: str, tasks) -> Kernel:
    if kind == "rr":
        scheduler = RoundRobinScheduler()
    elif kind == "fp":
        scheduler = FixedPriorityScheduler()
    elif kind == "stride":
        scheduler = StrideScheduler()
    else:
        scheduler = EdfScheduler()
    kernel = Kernel(scheduler)
    for i, (period, cost_pct, phase_ms) in enumerate(tasks):
        cfg = PeriodicTaskConfig(
            cost=max(1, period * cost_pct // 100),
            period=period,
            phase=phase_ms * MS,
            seed=100 + i,
        )
        proc = kernel.spawn(f"t{i}", periodic_task(cfg))
        if kind == "fp":
            scheduler.attach(proc, i)
        elif kind == "stride":
            scheduler.attach(proc, i + 1)
        elif kind == "edf":
            scheduler.attach(proc, period)
    return kernel


class TestRandomPeriodicSets:
    @settings(max_examples=25, deadline=None)
    @given(kind=schedulers, tasks=task_sets)
    def test_fast_forward_equals_full_run(self, kind, tasks):
        k_full = _build(kind, tasks)
        fin_full = attach_digest(k_full)
        k_full.run(HORIZON)

        k_ff = _build(kind, tasks)
        fin_ff = attach_digest(k_ff)
        report = run_fast_forward(k_ff, HORIZON)

        assert report.enabled, report.reason
        assert fin_ff() == fin_full()
        assert k_ff.clock == k_full.clock == HORIZON
        if report.detected:
            assert report.cycle_len is not None and report.cycle_len > 0

    @settings(max_examples=10, deadline=None)
    @given(tasks=task_sets)
    def test_feasible_fp_sets_detect_a_cycle(self, tasks):
        # rate-monotonic order over a <=75%-utilised zero-jitter set: the
        # schedule must settle into a cycle the digest can find
        ordered = sorted(tasks, key=lambda t: t[0])
        while sum(cost_pct / 100 * 1 for _, cost_pct, _ in ordered) > 0.75:
            ordered = ordered[:-1]
        if not ordered:
            ordered = [(8 * MS, 10, 0)]
        kernel = _build("fp", ordered)
        report = run_fast_forward(kernel, HORIZON)
        assert report.enabled
        assert report.detected
        assert report.skipped_ns > 0


class TestDesktopInterference:
    @settings(max_examples=10, deadline=None)
    @given(kind=schedulers, tasks=task_sets, n_desktop=st.integers(1, 2))
    def test_never_detects_with_aperiodic_mix(self, kind, tasks, n_desktop):
        from repro.workloads.desktop import DesktopLoadConfig, desktop_load

        k_full = _build(kind, tasks)
        fin_full = attach_digest(k_full)

        k_ff = _build(kind, tasks)
        fin_ff = attach_digest(k_ff)

        for kernel in (k_full, k_ff):
            for i in range(n_desktop):
                kernel.spawn(
                    f"desk{i}", desktop_load(DesktopLoadConfig(seed=50 + i))
                )
        k_full.run(HORIZON)
        report = run_fast_forward(k_ff, HORIZON)

        # aperiodic interference: the fast path must bow out entirely
        assert not report.enabled
        assert not report.detected
        assert report.reason is not None and "aperiodic" in report.reason
        assert fin_ff() == fin_full()


#: wake-up latencies: realistic ns values, and ones large enough that the
#: Welford floats (and their squares) lose integer precision
latencies = st.one_of(st.integers(0, 50_000), st.integers(0, 1 << 62))
#: one skipped cycle's samples, including empty and one-value cycles
cycle_samples = st.one_of(
    st.lists(latencies, max_size=6),
    st.builds(lambda value, k: [value] * k, latencies, st.integers(1, 4)),
)


def _accumulator_state(stats: LatencyStats) -> tuple[object, ...]:
    state: tuple[object, ...] = (
        stats.n,
        stats.total,
        stats.max,
        stats._mean.hex(),
        stats._m2.hex(),
    )
    if isinstance(stats, _SampleStats):
        state += (tuple(stats.hist), stats.misses)
    return state


class TestAddCyclesEqualsRepeatedAdds:
    @pytest.mark.parametrize("cls", [LatencyStats, _SampleStats])
    @settings(max_examples=150, deadline=None)
    @given(
        prior=st.lists(latencies, max_size=8),
        samples=cycle_samples,
        times=st.integers(0, 40),
        threshold=latencies,
    )
    def test_bit_for_bit(self, cls, prior, samples, times, threshold):
        def fresh() -> LatencyStats:
            stats = cls() if cls is LatencyStats else cls(threshold)
            for latency in prior:
                stats.add(latency)
            return stats

        stepped, missed, hit = fresh(), fresh(), fresh()
        for _ in range(times):
            for latency in samples:
                stepped.add(latency)
        _replay.cache_clear()
        missed.add_cycles(samples, times)  # computes the replay
        hit.add_cycles(samples, times)  # the same inputs: served from the cache
        if samples and times > 0:
            info = _replay.cache_info()
            assert (info.misses, info.hits) == (1, 1)
        assert _accumulator_state(missed) == _accumulator_state(stepped)
        assert _accumulator_state(hit) == _accumulator_state(stepped)

    @settings(max_examples=150, deadline=None)
    @given(
        prior=st.lists(st.integers(0, 50_000), min_size=1, max_size=8),
        samples=st.lists(st.integers(0, 50_000), min_size=1, max_size=6),
        times=st.integers(1, 40),
    )
    def test_a_hit_needs_every_input_equal(self, prior, samples, times):
        """A replay from a state or cycle that differs from a cached one in
        a single input must not be served the cached floats."""
        base = LatencyStats()
        for latency in prior:
            base.add(latency)
        n, mean, m2 = base.n, base._mean, base._m2
        changed = [*samples[:-1], samples[-1] + 1]
        variants = [
            (n, mean, m2, samples, times),  # warms the cache
            (n + 1, mean, m2, samples, times),
            (n, mean + 1.0, m2, samples, times),
            (n, mean, m2 + 1.0, samples, times),
            (n, mean, m2, changed, times),
            (n, mean, m2, samples, times + 1),
        ]
        _replay.cache_clear()
        for n_, mean_, m2_, samples_, times_ in variants:
            stepped, replayed = LatencyStats(), LatencyStats()
            for stats in (stepped, replayed):
                stats.n, stats._mean, stats._m2 = n_, mean_, m2_
            for _ in range(times_):
                for latency in samples_:
                    stepped.add(latency)
            replayed.add_cycles(samples_, times_)
            assert _accumulator_state(replayed) == _accumulator_state(stepped)
        assert _replay.cache_info().misses == len(variants)

    def test_the_replay_cache_is_bounded(self):
        _replay.cache_clear()
        maxsize = _replay.cache_info().maxsize
        for latency in range(maxsize + 5):
            LatencyStats().add_cycles([latency], 1)
        info = _replay.cache_info()
        assert info.misses == maxsize + 5
        assert info.currsize == maxsize
