"""Hot-path microbenchmarks of the simulator and analyser cores.

The four metrics of :mod:`repro.bench.micro` — the same ones
``repro-exp bench --micro`` emits into ``BENCH_*.json`` — run here under
pytest-benchmark so ``pytest benchmarks/micro --benchmark-only`` tracks
them interactively.  Each test also asserts a *very* loose throughput
floor: not a performance gate (absolute numbers are host-dependent) but
a canary against accidental algorithmic regressions — e.g. the
O(1)-``len`` calendar sliding back to an O(n) scan, or the vectorised
detector falling back to the per-pair Python loop, either of which
misses these floors by an order of magnitude on any host.
"""

from repro.bench.micro import bench_calendar, bench_detector, bench_sim, bench_spectrum


def test_calendar_ops(run_once):
    result = run_once(bench_calendar)
    assert result.unit == "ops/s"
    assert result.work == 60_000 * 6
    # push(3)/cancel/peek/pop rounds; even a laptop does >50k ops/s
    assert result.value > 50_000


def test_sim_throughput(run_once):
    result = run_once(bench_sim)
    assert result.unit == "sim-ns/s"
    # the cbs-background mix simulates much faster than real time
    assert result.value > 1_000_000_000
    assert result.extra["context_switches"] > 0
    assert result.extra["dispatched_events"] > 0


def test_spectrum_fold(run_once):
    result = run_once(bench_spectrum)
    assert result.unit == "events/s"
    assert result.value > 500
    # Eq. 3 accounting: every added event pays F = 701 operations once
    assert result.extra["operations"] == result.work * 701


def test_detector_pairs(run_once):
    result = run_once(bench_detector)
    assert result.unit == "pairs/s"
    assert result.value > 100_000
    assert result.extra["histogram_mass"] == result.work
