"""Unit coverage of the mergeable summary machinery."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.summary import (
    HIST_BINS,
    FleetAggregate,
    SimSummary,
    _bin_index,
    _merge_moments,
    _SampleStats,
)
from repro.sim.process import LatencyStats


def _summary(**overrides) -> SimSummary:
    base = dict(
        name="s",
        group="",
        seed=0,
        simulated_ns=1_000,
        procs=1,
        crashes=0,
        samples=0,
        lat_total=0,
        lat_max=0,
        lat_mean=0.0,
        lat_m2=0.0,
        hist=tuple([0] * HIST_BINS),
        misses=0,
        context_switches=0,
        syscalls=0,
        busy_ns=0,
        idle_ns=0,
        cpu_ns=0,
        ff_detected=False,
        cycles_skipped=0,
        skipped_ns=0,
    )
    base.update(overrides)
    return SimSummary(**base)


def test_bin_index_bounds():
    assert _bin_index(0) == 0
    assert _bin_index(1) == 1
    assert _bin_index(2) == 2
    assert _bin_index(3) == 2
    assert _bin_index((1 << 40)) == 41
    assert _bin_index(1 << 200) == HIST_BINS - 1  # clamps


@settings(max_examples=200, deadline=None)
@given(
    latencies=st.lists(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=50_000_000),
            st.integers(min_value=2**50, max_value=2**70),
        ),
        max_size=60,
    ),
    threshold=st.integers(min_value=0, max_value=20_000_000),
)
def test_sample_stats_add_is_the_three_step_update(latencies, threshold):
    # the parent's formulation: LatencyStats.add, then the bin, then the
    # miss tally, each its own step
    stats, reference = _SampleStats(threshold), LatencyStats()
    hist, misses = [0] * HIST_BINS, 0
    for latency in latencies:
        stats.add(latency)
        reference.add(latency)
        hist[_bin_index(latency)] += 1
        misses += latency > threshold
    assert (stats.n, stats.total, stats.max) == (reference.n, reference.total, reference.max)
    assert stats._mean.hex() == reference._mean.hex()
    assert stats._m2.hex() == reference._m2.hex()
    assert (stats.hist, stats.misses) == (hist, misses)


def test_merge_moments_matches_batch_welford():
    rng = random.Random(5)
    xs = [rng.randint(0, 10_000_000) for _ in range(500)]
    # split at an uneven point and merge the two halves' exact moments
    def moments(vals):
        n = len(vals)
        mean = sum(vals) / n
        m2 = sum((v - mean) ** 2 for v in vals)
        return n, mean, m2

    n, mean, m2 = _merge_moments(*moments(xs[:123]), *moments(xs[123:]))
    ref_n, ref_mean, ref_m2 = moments(xs)
    assert n == ref_n
    assert mean == pytest.approx(ref_mean, rel=1e-12)
    assert m2 == pytest.approx(ref_m2, rel=1e-9)


def test_merge_moments_empty_sides_are_exact():
    assert _merge_moments(0, 0.0, 0.0, 3, 1.5, 2.0) == (3, 1.5, 2.0)
    assert _merge_moments(3, 1.5, 2.0, 0, 0.0, 0.0) == (3, 1.5, 2.0)


def test_aggregate_fold_counts_and_groups():
    agg = FleetAggregate()
    agg.fold(_summary(group="g0", samples=2, lat_mean=5.0, misses=1, simulated_ns=10))
    agg.fold(_summary(group="g1", samples=2, lat_mean=7.0, simulated_ns=20))
    agg.fold(_summary(group="g0", simulated_ns=30))
    assert agg.sims == 3
    assert agg.samples == 4
    assert agg.misses == 1
    assert agg.simulated_ns == 60
    assert agg.lat_mean == pytest.approx(6.0)
    assert set(agg.groups) == {"g0", "g1"}
    assert agg.groups["g0"].sims == 2
    assert agg.groups["g1"].samples == 2


def test_quantile_reads_the_histogram():
    hist = [0] * HIST_BINS
    hist[3] = 90  # latencies in [4, 7]
    hist[10] = 10  # latencies in [512, 1023]
    agg = FleetAggregate()
    agg.fold(_summary(samples=100, hist=tuple(hist)))
    assert agg.quantile(0.5) == (1 << 3) - 1
    assert agg.quantile(0.99) == (1 << 10) - 1
    assert agg.quantile(1.0) == (1 << 10) - 1
    assert FleetAggregate().quantile(0.99) == 0
    with pytest.raises(ValueError):
        agg.quantile(1.5)


def test_lat_std_and_miss_rate():
    agg = FleetAggregate()
    assert agg.lat_std == 0.0
    assert agg.miss_rate == 0.0
    agg.fold(_summary(samples=5, lat_mean=10.0, lat_m2=40.0, misses=2))
    assert agg.lat_std == pytest.approx(math.sqrt(40.0 / 4))
    assert agg.miss_rate == pytest.approx(0.4)


def test_digest_is_canonical_and_sensitive():
    a, b = FleetAggregate(), FleetAggregate()
    for agg in (a, b):
        agg.fold(_summary(samples=1, lat_mean=3.0))
    assert a.digest() == b.digest()
    b.fold(_summary())
    assert a.digest() != b.digest()
