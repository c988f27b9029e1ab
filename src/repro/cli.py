"""Command-line experiment runner.

::

    repro-exp list                      # what can be reproduced
    repro-exp run fig01                 # one experiment, default params
    repro-exp run fig12 reps=100        # override keyword parameters
    repro-exp run fig06 --jobs 4        # shard inner repetitions
    repro-exp all --jobs 4              # everything, registry sharded
    repro-exp bench --output BENCH.json # timed sweep, machine-readable
    repro-exp trace fig13               # export a Perfetto/Chrome trace
    repro-exp faults trace-loss         # faulted playback + guard report
    repro-exp fleet run cdn.toml --jobs 8 --stream out.jsonl
                                        # batched fleet of scenario sims
    repro-exp tune demo.toml --jobs 4   # auto-tune the controller knobs

Parameters are passed as ``key=value`` pairs; values are parsed as Python
literals where possible (``reps=100``, ``horizons_s=(1.0,2.0)``).

Results are cached on disk (``$REPRO_CACHE_DIR`` or ``./.repro-cache``)
keyed on experiment + parameters + code digest; pass ``--no-cache`` to
force recomputation or ``--cache-dir`` to relocate the store.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys

from repro.experiments import REGISTRY


def _parse_overrides(pairs: list[str], target=None) -> dict:
    """``key=value`` pairs as keyword arguments, for ``target`` if given.

    A key that ``target``'s signature does not name is a usage error
    listing the keys it does; a ``target`` taking ``**kwargs`` accepts
    any key.
    """
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key] = raw
    if target is None:
        return out
    params = inspect.signature(target).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return out
    accepted = [p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    for key in out:
        if key not in accepted:
            raise SystemExit(f"unknown parameter {key!r}; accepted: {', '.join(accepted)}")
    return out


def _make_cache(args):
    """Build the ResultCache implied by --no-cache/--cache-dir."""
    if getattr(args, "no_cache", False):
        return None
    from repro.experiments.cache import ResultCache

    return ResultCache(getattr(args, "cache_dir", None))


def _positive_int(text: str) -> int:
    """argparse ``type`` for pool widths and chunk sizes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_exec_flags(subparser) -> None:
    subparser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="process-pool width (default: 1, serial)",
    )
    subparser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the on-disk result cache"
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )


def _run_one(
    name: str,
    pairs: list[str],
    csv_path: str | None = None,
    *,
    jobs: int = 1,
    cache=None,
) -> None:
    from repro.experiments.runner import run_experiment

    if name not in REGISTRY:
        raise SystemExit(f"unknown experiment {name!r}; try 'repro-exp list'")
    overrides = _parse_overrides(pairs, REGISTRY[name].run)
    outcome = run_experiment(name, overrides, jobs=jobs, cache=cache)
    print(outcome.result.to_text())
    if outcome.cached:
        print(f"[{name} served from cache]")
    else:
        print(f"[{name} completed in {outcome.elapsed_s:.1f}s]")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(outcome.result.to_csv())
        print(f"[csv written to {csv_path}]")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-exp``."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce the tables and figures of 'Self-tuning "
        "Schedulers for Legacy Real-Time Applications' (EuroSys 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment name (e.g. fig01)")
    run_p.add_argument("overrides", nargs="*", help="key=value parameter overrides")
    run_p.add_argument("--csv", default=None, help="also write the result as CSV to this path")
    _add_exec_flags(run_p)
    all_p = sub.add_parser("all", help="run every experiment with defaults")
    all_p.add_argument("--skip", nargs="*", default=[], help="experiments to skip")
    _add_exec_flags(all_p)
    bench_p = sub.add_parser(
        "bench", help="timed sweep with a machine-readable BENCH_*.json report"
    )
    bench_p.add_argument(
        "experiments", nargs="*", help="experiments to benchmark (default: the whole registry)"
    )
    bench_p.add_argument(
        "--output", default=None, metavar="PATH", help="report path (default: BENCH_<utc>.json)"
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down parameters for the expensive sweeps (CI smoke setting)",
    )
    _add_exec_flags(bench_p)
    trace_p = sub.add_parser(
        "trace", help="run an instrumented scenario and export a Perfetto/Chrome trace"
    )
    trace_p.add_argument(
        "scenario", help="trace scenario (fig13, fig13-lfs, daemon, qtrace-agent)"
    )
    trace_p.add_argument("overrides", nargs="*", help="key=value scenario overrides")
    trace_p.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="trace JSON path (default: <scenario>.perfetto.json)",
    )
    trace_p.add_argument(
        "--csv", default=None, metavar="PATH", help="also dump the metric timeseries as CSV"
    )
    trace_p.add_argument(
        "--summary", action="store_true", help="print a text digest of the recorded telemetry"
    )
    faults_p = sub.add_parser(
        "faults", help="run a fault-injection scenario and report the degradation guards"
    )
    faults_p.add_argument(
        "scenario",
        help="fault scenario (trace-loss, trace-jitter, ring-overrun, "
        "clock-coarse, overload, mode-switch, saturation)",
    )
    faults_p.add_argument("overrides", nargs="*", help="key=value scenario overrides")
    faults_p.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="also export the telemetry as a Perfetto/Chrome trace JSON",
    )
    lint_p = sub.add_parser(
        "lint", help="determinism & sim-invariant static analysis of the source tree"
    )
    from repro.analysis.lint.cli import build_parser as _build_lint_parser

    _build_lint_parser(lint_p)
    sim_p = sub.add_parser(
        "simulate",
        help="run a canonical scenario and print its equivalence digest "
        "(optionally through the schedule-cycle fast-forward)",
    )
    sim_p.add_argument(
        "scenario", help="canonical scenario name (see repro.bench.scenarios)"
    )
    sim_p.add_argument(
        "--duration", type=float, default=2.0, help="simulated horizon, seconds"
    )
    sim_p.add_argument(
        "--fast-forward",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="skip repeated schedule cycles analytically (default: off, so "
        "golden traces are produced by full stepping)",
    )
    sim_p.add_argument("--json", action="store_true", help="machine-readable output")
    fleet_p = sub.add_parser(
        "fleet", help="fleet-scale scenario DSL: expand templates, run batched sims"
    )
    fleet_sub = fleet_p.add_subparsers(dest="fleet_command", required=True)
    fr_p = fleet_sub.add_parser(
        "run", help="run a scenario or template TOML through the batched engine"
    )
    fr_p.add_argument("spec", help="scenario or template TOML (templates have a [template] table)")
    fr_p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (default: 1, inline)",
    )
    fr_p.add_argument(
        "--chunksize",
        type=_positive_int,
        default=16,
        metavar="K",
        help="sims packed per pool task (default: 16; result-invariant)",
    )
    fr_p.add_argument(
        "--stream",
        default=None,
        metavar="PATH",
        help="write one JSON line per finished sim to PATH, in fleet order",
    )
    fr_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="run only the first N sims of the expansion",
    )
    fr_p.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="full stepping only (fast-forward is bit-identical; this is a debugging aid)",
    )
    fr_p.add_argument("--json", action="store_true", help="machine-readable aggregate output")
    fe_p = fleet_sub.add_parser(
        "expand", help="expand a template without running it (count or list the specs)"
    )
    fe_p.add_argument("spec", help="scenario or template TOML")
    fe_p.add_argument(
        "--limit", type=int, default=None, metavar="N", help="list at most N spec names"
    )
    fe_p.add_argument("--json", action="store_true", help="machine-readable spec dump")
    tune_p = sub.add_parser(
        "tune",
        help="auto-tune the controller parameter space against workload "
        "classes; writes a deterministic TUNE_*.json report",
    )
    tune_p.add_argument("spec", help="tune spec TOML (see docs/tuning.md)")
    tune_p.add_argument(
        "--budget", type=int, default=None, metavar="B",
        help="override the spec's per-class evaluation budget",
    )
    tune_p.add_argument(
        "--seed", type=int, default=None, metavar="S", help="override the spec's master seed"
    )
    tune_p.add_argument(
        "--method", default=None, metavar="M",
        help="override the global search method (lhs, random, cmaes)",
    )
    tune_p.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="report path (default: TUNE_<name>.json next to the cwd)",
    )
    tune_p.add_argument("--json", action="store_true", help="print the report to stdout as JSON")
    _add_exec_flags(tune_p)
    an_p = sub.add_parser("analyze", help="offline period analysis of a saved trace")
    an_p.add_argument("trace", help="trace file (qtrace v1 format)")
    an_p.add_argument("--pid", type=int, default=None, help="restrict to one pid")
    an_p.add_argument("--fmin", type=float, default=1.0, help="scan floor, Hz")
    an_p.add_argument("--fmax", type=float, default=100.0, help="scan ceiling, Hz")
    an_p.add_argument("--df", type=float, default=0.1, help="frequency step, Hz")
    an_p.add_argument("--horizon", type=float, default=2.0, help="observation horizon, s")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name, module in REGISTRY.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    if args.command == "run":
        _run_one(
            args.experiment,
            args.overrides,
            csv_path=args.csv,
            jobs=args.jobs,
            cache=_make_cache(args),
        )
        return 0
    if args.command == "all":
        from repro.experiments.runner import run_many

        names = [name for name in REGISTRY if name not in args.skip]
        outcomes = run_many(names, jobs=args.jobs, cache=_make_cache(args))
        for outcome in outcomes:
            print(outcome.result.to_text())
            status = "served from cache" if outcome.cached else f"{outcome.elapsed_s:.1f}s"
            print(f"[{outcome.name}: {status}]")
            print()
        return 0
    if args.command == "bench":
        return _bench(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "faults":
        return _faults(args)
    if args.command == "lint":
        from repro.analysis.lint.cli import run_lint

        return run_lint(args)
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "fleet":
        return _fleet(args)
    if args.command == "tune":
        return _tune(args)
    if args.command == "analyze":
        _analyze(args)
        return 0
    return 1  # pragma: no cover


def _bench(args) -> int:
    """Timed registry sweep; writes the machine-readable BENCH report."""
    import time

    from repro.experiments.report import BENCH_QUICK_OVERRIDES, write_bench_json
    from repro.experiments.runner import run_many

    names = args.experiments or list(REGISTRY)
    for name in names:
        if name not in REGISTRY:
            raise SystemExit(f"unknown experiment {name!r}; try 'repro-exp list'")
    overrides = {n: dict(BENCH_QUICK_OVERRIDES.get(n, {})) for n in names} if args.quick else {}
    outcomes = run_many(names, overrides, jobs=args.jobs, cache=_make_cache(args))
    for outcome in outcomes:
        status = "cache" if outcome.cached else f"{outcome.elapsed_s:6.1f}s"
        print(f"{outcome.name:16s} {status}")
    path = args.output or time.strftime("BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime())
    write_bench_json(path, outcomes, overrides=overrides)
    print(f"[bench report written to {path}]")
    return 0


def _simulate(args) -> int:
    """Run a canonical scenario; print its digest and fast-forward report."""
    import json

    from repro.bench.golden import equivalence_digest
    from repro.bench.scenarios import ALL_SCENARIOS
    from repro.sim.time import SEC

    if args.scenario not in ALL_SCENARIOS:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; known: {', '.join(sorted(ALL_SCENARIOS))}"
        )
    duration_ns = int(args.duration * SEC)
    digest, report = equivalence_digest(
        args.scenario, duration_ns, fast_forward=args.fast_forward
    )
    if args.json:
        payload = {
            "scenario": args.scenario,
            "duration_ns": duration_ns,
            "digest": digest,
            "fast_forward": report.to_jsonable() if report is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.scenario}: digest {digest}")
    if report is not None:
        if report.detected:
            print(
                f"fast-forward: cycle of {report.cycle_len} ns detected at "
                f"{report.cycle_start} ns after {report.boundaries_sampled} "
                f"boundary samples; skipped {report.cycles_skipped} cycles "
                f"({report.skipped_ns} simulated ns)"
            )
        elif report.enabled:
            print(
                f"fast-forward: enabled (hyperperiod {report.hyperperiod} ns, "
                f"{report.boundaries_sampled} boundaries sampled) but no cycle "
                "repeated within the horizon"
            )
        else:
            print(f"fast-forward: disabled ({report.reason})")
    return 0


def _fleet_specs(path: str):
    """Load ``path`` as a template or single scenario; return (specs, size).

    ``specs`` is a lazy iterator; ``size`` is the declared expansion size
    (1 for a plain scenario) before any ``--limit``.
    """
    from pathlib import Path

    from repro.fleet import expand_template, load_scenario, load_template
    from repro.fleet.spec import SpecError, load_toml

    try:
        doc = load_toml(Path(path).read_text(encoding="utf-8"))
        if "template" in doc:
            template = load_template(path)
            return expand_template(template), template.size
        return iter([load_scenario(path)]), 1
    except OSError as exc:
        raise SystemExit(f"cannot read {path!r}: {exc}") from None
    except SpecError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _fleet(args) -> int:
    """Fleet verbs: ``expand`` (inspect a template) and ``run`` (execute)."""
    import itertools
    import json
    import time

    from repro.fleet import run_fleet
    from repro.sim.time import SEC

    specs, size = _fleet_specs(args.spec)
    if args.limit is not None:
        if args.limit < 1:
            raise SystemExit(f"--limit must be >= 1, got {args.limit}")
        specs = itertools.islice(specs, args.limit)
        size = min(size, args.limit)
    if args.fleet_command == "expand":
        if args.json:
            print(json.dumps([spec.to_jsonable() for spec in specs], indent=2, sort_keys=True))
        else:
            for spec in specs:
                print(spec.name)
            print(f"[{size} sims]")
        return 0
    t0 = time.perf_counter()
    aggregate = run_fleet(
        specs,
        jobs=args.jobs,
        chunksize=args.chunksize,
        fast_forward=not args.no_fast_forward,
        stream=args.stream,
    )
    elapsed = time.perf_counter() - t0
    if args.json:
        payload = aggregate.to_jsonable()
        payload["digest"] = aggregate.digest()
        payload["elapsed_s"] = elapsed
        payload["sims_per_s"] = aggregate.sims / elapsed if elapsed > 0 else 0.0
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{aggregate.sims} sims, {aggregate.simulated_ns / SEC:.1f} simulated s "
        f"in {elapsed:.1f}s wall "
        f"({aggregate.sims / elapsed if elapsed > 0 else 0.0:,.1f} sims/s)"
    )
    print(
        f"latency: mean {aggregate.lat_mean / 1e6:.3f} ms, "
        f"p99 <= {aggregate.quantile(0.99) / 1e6:.3f} ms, "
        f"max {aggregate.lat_max / 1e6:.3f} ms over {aggregate.samples:,d} samples"
    )
    print(
        f"misses: {aggregate.misses:,d} ({100.0 * aggregate.miss_rate:.4f}%), "
        f"crashes: {aggregate.crashes}, fast-forwarded: {aggregate.ff_detected}/{aggregate.sims}"
    )
    if args.stream:
        print(f"[stream written to {args.stream}]")
    print(f"digest {aggregate.digest()}")
    return 0


def _tune(args) -> int:
    """Auto-tune the controller space; write the canonical TUNE report.

    The report file is a pure function of the tune spec (no wall-clock
    data) so reruns and different ``--jobs`` values are byte-identical;
    the run statistics (evaluations, cache hits, simulations executed,
    elapsed time) go to stdout only.
    """
    import dataclasses
    import json
    import time

    from repro.fleet.spec import SpecError
    from repro.tune import run_tune, write_tune_json
    from repro.tune.service import load_tune_spec

    try:
        spec = load_tune_spec(args.spec)
        overrides = {
            key: value
            for key, value in (
                ("budget", args.budget), ("seed", args.seed), ("method", args.method)
            )
            if value is not None
        }
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.spec!r}: {exc}") from None
    except (SpecError, ValueError) as exc:
        raise SystemExit(f"{args.spec}: {exc}") from None
    t0 = time.perf_counter()
    report = run_tune(spec, jobs=args.jobs, cache=_make_cache(args))
    elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(report.payload, indent=2, sort_keys=True))
    path = args.output or f"TUNE_{spec.name}.json"
    write_tune_json(path, report.payload)
    for key in sorted(report.payload["classes"]):
        cls = report.payload["classes"][key]
        print(
            f"{key:16s} default {cls['default_score']:10.3f} -> "
            f"best {cls['best_score']:10.3f} (improvement {cls['improvement']:+.3f})"
        )
    print(
        f"[{report.evaluations} evaluations, {report.cache_hits} cache hits, "
        f"{report.sims_run} sims in {elapsed:.1f}s]"
    )
    print(f"[tune report written to {path}]")
    return 0


def _trace(args) -> int:
    """Run an instrumented scenario; export the Perfetto/Chrome artifact."""
    from repro.obs.export import summary_text, timeseries_csv, write_chrome_trace
    from repro.obs.scenarios import TRACE_SCENARIOS, run_trace_scenario

    if args.scenario not in TRACE_SCENARIOS:
        raise SystemExit(
            f"unknown trace scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(TRACE_SCENARIOS))}"
        )
    overrides = _parse_overrides(args.overrides, TRACE_SCENARIOS[args.scenario])
    telemetry = run_trace_scenario(args.scenario, overrides)
    path = args.output or f"{args.scenario}.perfetto.json"
    write_chrome_trace(telemetry, path)
    cats = ", ".join(sorted(telemetry.span_categories()))
    print(
        f"[trace written to {path}: {len(telemetry.spans)} spans ({cats}), "
        f"{len(telemetry.instants)} instants, {len(telemetry.metrics)} metric series]"
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(timeseries_csv(telemetry))
        print(f"[timeseries csv written to {args.csv}]")
    if args.summary:
        print(summary_text(telemetry))
    return 0


def _faults(args) -> int:
    """Run a fault scenario; print the guard report, optionally export."""
    from repro.faults.scenarios import FAULT_SCENARIOS, run_fault_scenario

    if args.scenario not in FAULT_SCENARIOS:
        raise SystemExit(
            f"unknown fault scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(FAULT_SCENARIOS))}"
        )
    run = run_fault_scenario(
        args.scenario, _parse_overrides(args.overrides, FAULT_SCENARIOS[args.scenario])
    )
    print(run.report_text())
    if args.output:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(run.telemetry, args.output)
        print(f"[trace written to {args.output}]")
    return 0


def _analyze(args) -> None:
    """Offline period detection on a saved trace."""
    from repro.core.analyser import AnalyserConfig, PeriodAnalyser
    from repro.core.spectrum import SpectrumConfig
    from repro.sim.time import SEC
    from repro.tracer import EventKind, filter_trace, load_trace

    events = load_trace(args.trace)
    events = filter_trace(events, pid=args.pid, kinds=[EventKind.SYSCALL_ENTRY, EventKind.WAKEUP])
    if not events:
        raise SystemExit("no matching events in the trace")
    pids = sorted({e.pid for e in events})
    print(f"{len(events)} events, pids {pids}, span "
          f"{(events[-1].time - events[0].time) / SEC:.3f} s")

    analyser = PeriodAnalyser(
        AnalyserConfig(
            spectrum=SpectrumConfig(f_min=args.fmin, f_max=args.fmax, df=args.df),
            horizon_ns=int(args.horizon * SEC),
        )
    )
    analyser.add_times([e.time for e in events])
    estimate = analyser.analyse(events[-1].time)
    if estimate is None:
        print("verdict: no periodic structure detected")
        return
    print(f"verdict: periodic at {estimate.frequency:.2f} Hz "
          f"(period {estimate.period_ns / 1e6:.3f} ms, from {estimate.n_events} events)")
    if estimate.detail is not None and estimate.detail.candidates:
        top = sorted(
            zip(estimate.detail.candidates, estimate.detail.harmonic_sums, strict=True),
            key=lambda cs: -cs[1],
        )[:5]
        print("top candidates (freq Hz : harmonic sum):")
        for freq, total in top:
            print(f"  {freq:8.2f} : {total:.1f}")


if __name__ == "__main__":
    sys.exit(main())
