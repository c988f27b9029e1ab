"""Microbenchmarks of the simulator and analyser hot paths.

Eight throughput metrics, one per hot path the profile concentrates in:

- ``calendar`` — :class:`repro.sim.engine.EventQueue` push/peek/cancel/pop
  operations per second on a deterministic mixed workload;
- ``sim`` — simulated nanoseconds per wall-clock second on the canonical
  mplayer + disturbance mix (the ``cbs-background`` golden scenario);
- ``spectrum`` — events per second through the sliding-window
  :class:`repro.core.spectrum.Spectrum`: ``add_events``, ``slide_to``
  and an ``amplitude`` read after every batch;
- ``detector`` — pairwise intervals examined per second by
  :meth:`repro.core.autocorr.IntervalHistogramDetector.interval_histogram`;
- ``sim-obs`` — the ``sim`` scenario with a :mod:`repro.obs` telemetry
  hub attached, tracking the recording overhead against the bare run;
- ``fastforward`` — simulated-ns/sec through the schedule-cycle
  fast-forward of :mod:`repro.sim.cycles` on a long periodic horizon,
  with the full-run baseline and the wall-clock speedup in ``extra``;
- ``fleet`` — sims/sec through the batched :mod:`repro.fleet` engine on
  a 12-sim periodic template, against the naive one-sim-per-task
  full-stepping baseline (equivalence-checked), with the speedup and a
  parent peak-memory flatness spot-check in ``extra``;
- ``tune`` — candidate evaluations/sec through the :mod:`repro.tune`
  search service on a small one-class spec, with the warm-rerun
  result-cache speedup (cold/warm wall clock; the warm run must execute
  zero new simulations) in ``extra``.

``repro-exp bench --micro`` runs them and emits the numbers into the
``BENCH_*.json`` report (schema ``repro-bench/1``, ``micro`` key), so the
single-run performance trajectory is tracked PR over PR alongside the
experiment wall-clock sweep.  The workloads are seeded and fixed; only
the wall-clock denominator varies between hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.sim.time import SEC

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.kernel import Kernel


@dataclass
class MicroResult:
    """Outcome of one microbenchmark run."""

    name: str
    #: headline throughput (work units per wall-clock second)
    value: float
    #: unit of ``value``, e.g. ``"ops/s"``
    unit: str
    #: wall-clock duration of the timed section, seconds
    elapsed_s: float
    #: total work units performed in the timed section
    work: int
    #: benchmark parameters (for the JSON report)
    params: dict = field(default_factory=dict)
    #: auxiliary measurements (counters, cross-checks)
    extra: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        """Strict-JSON-friendly record for the bench report."""
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "elapsed_s": round(self.elapsed_s, 6),
            "work": self.work,
            "params": dict(self.params),
            "extra": dict(self.extra),
        }


def bench_calendar(n_rounds: int = 60_000) -> MicroResult:
    """EventQueue throughput on a mixed push/peek/cancel/pop workload.

    Each round pushes three events at pseudorandom times (deterministic
    LCG), cancels one, peeks, and pops one — so the heap carries a
    steady ~50% tombstone load, the worst case the calendar's lazy
    cancellation must absorb.  One round = 6 queue operations.
    """
    from repro.sim.engine import EventQueue

    q = EventQueue()
    sink = []

    def cb(now, payload):  # pragma: no cover - never fired
        sink.append(now)

    x = 123456789
    t0 = time.perf_counter()
    for _ in range(n_rounds):
        x = (1103515245 * x + 12345) % (1 << 31)
        a = q.push(x, cb)
        x = (1103515245 * x + 12345) % (1 << 31)
        q.push(x, cb)
        x = (1103515245 * x + 12345) % (1 << 31)
        q.push(x, cb)
        a.cancel()
        q.peek_time()
        q.pop()
    elapsed = time.perf_counter() - t0
    ops = n_rounds * 6
    return MicroResult(
        name="calendar",
        value=ops / elapsed,
        unit="ops/s",
        elapsed_s=elapsed,
        work=ops,
        params={"n_rounds": n_rounds},
        extra={"leftover": len(q)},
    )


def bench_sim(duration_s: float = 2.0, repeats: int = 128) -> MicroResult:
    """Simulated-ns/sec on the canonical mplayer + disturbance mix.

    Runs the ``cbs-background`` golden scenario (AudioPlayer under a
    tight CBS reservation, jittery reserved periodic task, best-effort
    disturbance) for ``duration_s`` simulated seconds, ``repeats`` times
    over fresh kernels.  One run takes ~13 wall milliseconds on a
    two-vCPU x86_64 VM; 128 repeats keep the timed section above a
    second there, well clear of timer noise and scheduling hiccups.
    """
    from repro.bench.scenarios import build_scenario

    duration_ns = int(duration_s * SEC)
    kernel = None
    t0 = time.perf_counter()
    for _ in range(max(repeats, 1)):
        kernel = build_scenario("cbs-background")
        kernel.run(duration_ns)
    elapsed = time.perf_counter() - t0
    total_ns = duration_ns * max(repeats, 1)
    return MicroResult(
        name="sim",
        value=total_ns / elapsed,
        unit="sim-ns/s",
        elapsed_s=elapsed,
        work=total_ns,
        params={"scenario": "cbs-background", "duration_s": duration_s, "repeats": repeats},
        extra={
            "context_switches": kernel.stats.context_switches,
            "dispatched_events": kernel.stats.dispatched_events,
            "syscalls": kernel.stats.syscalls,
        },
    )


def bench_spectrum(n_events: int = 12_000, batch: int = 200) -> MicroResult:
    """Events/sec through the incremental sparse spectrum.

    Feeds a jittered 32.5 Hz event train (plus the 3-per-period device
    grid, like the mp3 workload) through ``add_events`` in download-agent
    sized batches, sliding a 2 s window and reading the amplitude
    spectrum after every batch — the access pattern of the online
    analyser.  Columns are evaluated lazily by ``amplitude``, so reading
    it only once at the end would time little more than the appends.
    """
    import numpy as np

    from repro.core.spectrum import Spectrum, SpectrumConfig

    rng = np.random.default_rng(42)
    period = round(1e9 / 32.5)
    base = np.arange(n_events, dtype=np.int64) * (period // 3)
    times = base + rng.integers(0, 200_000, size=n_events)
    spec = Spectrum(SpectrumConfig(f_min=30.0, f_max=100.0, df=0.1), horizon_ns=2 * SEC)
    t0 = time.perf_counter()
    for start in range(0, n_events, batch):
        chunk = times[start : start + batch]
        spec.add_events(chunk)
        spec.slide_to(int(chunk[-1]))
        amplitude = spec.amplitude()
    elapsed = time.perf_counter() - t0
    amplitude_peak = float(amplitude.max())
    return MicroResult(
        name="spectrum",
        value=n_events / elapsed,
        unit="events/s",
        elapsed_s=elapsed,
        work=n_events,
        params={"n_events": n_events, "batch": batch},
        extra={"operations": spec.operations, "amplitude_peak": amplitude_peak},
    )


def bench_detector(n_events: int = 30_000) -> MicroResult:
    """Pairwise intervals/sec through the time-domain histogram detector."""
    import numpy as np

    from repro.core.autocorr import IntervalDetectorConfig, IntervalHistogramDetector

    rng = np.random.default_rng(7)
    period = 30_770_000
    times = np.arange(n_events, dtype=np.int64) * (period // 3)
    times = times + rng.integers(0, 500_000, size=n_events)
    det = IntervalHistogramDetector(IntervalDetectorConfig())
    t0 = time.perf_counter()
    _lags, counts, pairs = det.interval_histogram(times)
    elapsed = time.perf_counter() - t0
    return MicroResult(
        name="detector",
        value=pairs / elapsed,
        unit="pairs/s",
        elapsed_s=elapsed,
        work=pairs,
        params={"n_events": n_events},
        extra={"histogram_mass": int(counts.sum())},
    )


def bench_sim_obs(duration_s: float = 2.0, repeats: int = 4) -> MicroResult:
    """Instrumented sim throughput, with the telemetry-off cross-check.

    Runs the same ``cbs-background`` mix as ``sim`` twice per repeat —
    once bare, once with a :mod:`repro.obs` hub attached — and reports
    the instrumented throughput; ``extra`` carries the bare throughput
    and the on/off wall-clock ratio, so the recording overhead (and the
    cost of the disabled fast path) is tracked PR over PR.
    """
    from repro.bench.scenarios import build_scenario
    from repro.obs.instrument import instrument_kernel

    duration_ns = int(duration_s * SEC)
    reps = max(repeats, 1)
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel = build_scenario("cbs-background")
        kernel.run(duration_ns)
    off_elapsed = time.perf_counter() - t0
    hub = None
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel = build_scenario("cbs-background")
        hub = instrument_kernel(kernel)
        kernel.run(duration_ns)
    on_elapsed = time.perf_counter() - t0
    total_ns = duration_ns * reps
    return MicroResult(
        name="sim-obs",
        value=total_ns / on_elapsed,
        unit="sim-ns/s",
        elapsed_s=off_elapsed + on_elapsed,
        work=total_ns,
        params={"scenario": "cbs-background", "duration_s": duration_s, "repeats": repeats},
        extra={
            "off_value": total_ns / off_elapsed,
            "overhead_ratio": on_elapsed / off_elapsed,
            "spans": len(hub.spans),
            "instants": len(hub.instants),
            "metric_series": len(hub.metrics),
        },
    )


def _ff_outputs(kernel: Kernel) -> tuple[object, ...]:
    """What a fast-forwarded run must reproduce: switch count, each
    process's latency moments (floats by ``float.hex``) and the
    scheduler's cycle counters."""
    moments = tuple(
        (lat.n, lat.total, lat.max, lat._mean.hex(), lat._m2.hex())
        for lat in (kernel.processes[pid].sched_latency for pid in sorted(kernel.processes))
    )
    return kernel.stats.context_switches, moments, kernel.scheduler.cycle_counters()


def bench_fastforward(duration_s: float = 60.0) -> MicroResult:
    """Fast-forward speedup on a long purely-periodic horizon.

    Runs the ``periodic-cbs-background`` scenario (commensurate periods,
    exhaustions every job — the busiest eligible mix) for ``duration_s``
    simulated seconds twice: stepped in full, then through
    :func:`repro.sim.cycles.run_fast_forward`.  The headline value is the
    fast-forwarded simulated-ns/sec; ``extra`` carries the full-run
    throughput and the wall-clock speedup the regression gate guards
    (the ISSUE bar is >= 10x).
    """
    from repro.bench.scenarios import build_scenario
    from repro.sim.cycles import run_fast_forward

    scenario = "periodic-cbs-background"
    duration_ns = int(duration_s * SEC)
    t0 = time.perf_counter()
    kernel_full = build_scenario(scenario)
    kernel_full.run(duration_ns)
    full_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernel_ff = build_scenario(scenario)
    report = run_fast_forward(kernel_ff, duration_ns)
    ff_elapsed = time.perf_counter() - t0
    if _ff_outputs(kernel_ff) != _ff_outputs(kernel_full):
        raise AssertionError("fast-forward diverged from the full run")
    return MicroResult(
        name="fastforward",
        value=duration_ns / ff_elapsed,
        unit="sim-ns/s",
        elapsed_s=full_elapsed + ff_elapsed,
        work=duration_ns,
        params={"scenario": scenario, "duration_s": duration_s},
        extra={
            "speedup": full_elapsed / ff_elapsed,
            "full_value": duration_ns / full_elapsed,
            "detected": report.detected,
            "cycles_skipped": report.cycles_skipped,
            "skipped_ns": report.skipped_ns,
            "hyperperiod": report.hyperperiod,
        },
    )


#: the fleet microbenchmark's inline template: purely periodic CBS nodes
#: (fast-forward eligible), a 2-policy grid x 6 nodes = 12 sims
_FLEET_TEMPLATE = """
[template]
name = "fleet-micro"
nodes = 6
seed = 4242

[scenario]
horizon_ms = 8000.0
miss_threshold_ms = 10.0

[scheduler]
kind = "cbs"
policy = "hard"

[[workload]]
kind = "periodic"
name = "p8"
count = 2
period_ms = 8.0
cost_ms = 0.4
budget_ms = 2.5
server_period_ms = 8.0

[[workload]]
kind = "periodic"
name = "p16"
count = 2
period_ms = 16.0
cost_ms = 1.0
budget_ms = 3.5
server_period_ms = 16.0

[grid]
"scheduler.policy" = ["hard", "soft"]
"""


def _strip_ff_accounting(doc: dict) -> dict:
    """An aggregate's JSON form minus the fast-forward bookkeeping.

    Fast-forward changes *how* a sim ran, never what it computed; the
    equivalence check between the naive and batched legs must therefore
    ignore the ``ff_*``/``*_skipped`` counters while comparing every
    latency, miss and kernel number bit for bit.
    """
    out = {k: v for k, v in doc.items() if k not in ("ff_detected", "cycles_skipped", "skipped_ns")}
    if "groups" in out:
        out["groups"] = {k: _strip_ff_accounting(v) for k, v in out["groups"].items()}
    return out


def bench_fleet() -> MicroResult:
    """Batched fleet engine vs naive per-sim execution.

    Expands the inline 12-sim purely-periodic template twice: the naive
    leg runs every sim individually with full stepping (one sim per
    chunk, no fast-forward — what a pre-fleet driver loop would do), the
    batched leg runs the production configuration (packed chunks +
    schedule-cycle fast-forward).  Both legs must agree on every
    non-fast-forward aggregate field, or this raises.  The headline value
    is the batched leg's sims/s; ``extra`` carries the >= 5x speedup the
    regression gate guards and a tracemalloc spot-check showing parent
    peak memory is flat in fleet size (full vs half fleet).
    """
    import tracemalloc

    from repro.fleet import expand_template, parse_template, run_fleet

    template = parse_template(_FLEET_TEMPLATE)
    sims = template.size
    t0 = time.perf_counter()
    naive = run_fleet(expand_template(template), jobs=1, chunksize=1, fast_forward=False)
    naive_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = run_fleet(expand_template(template), jobs=1, chunksize=8, fast_forward=True)
    fast_elapsed = time.perf_counter() - t0
    if _strip_ff_accounting(naive.to_jsonable()) != _strip_ff_accounting(fast.to_jsonable()):
        raise AssertionError("batched fleet run diverged from naive per-sim execution")

    def _fold_peak(limit: int) -> int:
        import itertools

        specs = itertools.islice(expand_template(template), limit)
        tracemalloc.start()
        run_fleet(specs, jobs=1, chunksize=8, fast_forward=True)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_half = _fold_peak(sims // 2)
    peak_full = _fold_peak(sims)
    return MicroResult(
        name="fleet",
        value=sims / fast_elapsed,
        unit="sims/s",
        elapsed_s=naive_elapsed + fast_elapsed,
        work=sims,
        params={"sims": sims, "chunksize": 8, "horizon_s": 8.0},
        extra={
            "speedup": naive_elapsed / fast_elapsed,
            "naive_value": sims / naive_elapsed,
            "simulated_ns_per_s": fast.simulated_ns / fast_elapsed,
            "ff_detected": fast.ff_detected,
            "misses": fast.misses,
            "digest": fast.digest(),
            "peak_rss_ratio": peak_full / peak_half if peak_half else 0.0,
        },
    )


def bench_tune() -> MicroResult:
    """Auto-tuner throughput plus the result-cache replay speedup.

    Runs one small tuning spec twice against a private cache directory:
    cold (every candidate simulated) and warm (every candidate replayed
    from the on-disk :class:`~repro.experiments.cache.ResultCache`).
    The headline value is cold candidate evaluations per second;
    ``extra.cache_speedup`` is the cold/warm wall-clock ratio the bench
    regression gate floors, and the warm run is asserted to execute
    **zero** new simulations and produce a byte-identical payload.
    """
    import json
    import tempfile

    from repro.experiments.cache import ResultCache
    from repro.tune import run_tune, tune_spec_from_toml

    spec = tune_spec_from_toml(
        """
        [tune]
        name = "bench"
        seed = 11
        budget = 14
        method = "lhs"
        classes = ["periodic-mix"]
        horizon_ms = 3000.0

        [[param]]
        knob = "spread"

        [[param]]
        knob = "quantile"
        """
    )
    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        cold = run_tune(spec, jobs=1, cache=ResultCache(root))
        cold_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_tune(spec, jobs=1, cache=ResultCache(root))
        warm_elapsed = time.perf_counter() - t0
    if warm.sims_run != 0:
        raise AssertionError(f"warm tune rerun executed {warm.sims_run} sims, expected 0")
    cold_blob = json.dumps(cold.payload, sort_keys=True)
    if cold_blob != json.dumps(warm.payload, sort_keys=True):
        raise AssertionError("warm tune rerun diverged from the cold payload")
    best = cold.payload["classes"]["periodic-mix"]["best_score"]
    return MicroResult(
        name="tune",
        value=cold.evaluations / cold_elapsed,
        unit="evals/s",
        elapsed_s=cold_elapsed + warm_elapsed,
        work=cold.evaluations,
        params={"budget": 14, "classes": 1, "horizon_s": 3.0},
        extra={
            "cache_speedup": cold_elapsed / warm_elapsed,
            "sims_cold": cold.sims_run,
            "sims_warm": warm.sims_run,
            "best_score": best,
            "improvement": cold.payload["classes"]["periodic-mix"]["improvement"],
        },
    )


def bench_lint() -> MicroResult:
    """Linter throughput plus the incremental-cache warm speedup.

    Lints the installed ``repro`` package twice against a private cache
    directory: cold (every file parsed, facts extracted, rules run) and
    warm (facts and reports both served from the cache).  The headline
    value is cold files per second; ``extra.cache_speedup`` is the
    cold/warm wall-clock ratio the bench regression gate floors, and the
    warm run is asserted to re-analyse **zero** files with an identical
    diagnostic set.
    """
    import tempfile

    import repro
    from repro.analysis.lint.cache import AnalysisCache
    from repro.analysis.lint.engine import lint_paths

    roots = list(repro.__path__)
    with tempfile.TemporaryDirectory() as root:
        t0 = time.perf_counter()
        cold = lint_paths(roots, cache=AnalysisCache(root))
        cold_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = lint_paths(roots, cache=AnalysisCache(root))
        warm_elapsed = time.perf_counter() - t0
    if warm.analysed != 0:
        raise AssertionError(f"warm lint rerun analysed {warm.analysed} files, expected 0")
    cold_diags = [d.to_json() for d in cold.diagnostics]
    if cold_diags != [d.to_json() for d in warm.diagnostics]:
        raise AssertionError("warm lint rerun diverged from the cold diagnostics")
    return MicroResult(
        name="lint",
        value=cold.files / cold_elapsed,
        unit="files/s",
        elapsed_s=cold_elapsed + warm_elapsed,
        work=cold.files,
        params={"files": cold.files},
        extra={
            "cache_speedup": cold_elapsed / warm_elapsed,
            "analysed_cold": cold.analysed,
            "analysed_warm": warm.analysed,
            "cached_warm": warm.cached,
            "diagnostics": len(cold.diagnostics),
            "waived": len(cold.waived),
        },
    )


#: name -> zero-argument benchmark callable (defaults are the canonical
#: sizes the trajectory is tracked at)
MICRO_REGISTRY: dict[str, Callable[[], MicroResult]] = {
    "calendar": bench_calendar,
    "sim": bench_sim,
    "spectrum": bench_spectrum,
    "detector": bench_detector,
    "sim-obs": bench_sim_obs,
    "fastforward": bench_fastforward,
    "fleet": bench_fleet,
    "tune": bench_tune,
    "lint": bench_lint,
}


def run_micro(names: list[str] | None = None) -> list[MicroResult]:
    """Run the selected microbenchmarks (default: all, registry order)."""
    selected = list(MICRO_REGISTRY) if not names else list(names)
    for name in selected:
        if name not in MICRO_REGISTRY:
            raise KeyError(f"unknown microbenchmark {name!r}; known: {sorted(MICRO_REGISTRY)}")
    return [MICRO_REGISTRY[name]() for name in selected]
