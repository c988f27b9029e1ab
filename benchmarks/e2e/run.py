"""End-to-end benchmark: the paper's closed loop, a fleet sweep and a tune run.

One run measures one workload for ``--seconds`` and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``), each as ``{"value", "unit"}``::

    python3 benchmarks/e2e/run.py --workload fleet-cdn --seed 0 --seconds 25 --trace 0

Without ``--workload`` every workload runs; ``--runs N`` repeats the
cycle N times on seeds ``seed .. seed+N-1``, one workload after the
other, so host drift hits every workload alike.  ``--out FILE`` writes
the whole run set (per-pass samples, quartiles, digests, host) as JSON;
``compare.py`` compares two such files.

Each run starts ``PROCESSES`` fresh interpreters (``suite.py``) one
after the other.  Each is timed from spawn to ``ready``, and then
measures for its share of ``--seconds``; the run reports medians over
all of them, because fresh processes of the same workload and seed run
up to ~10% apart, each steady within itself.  A traced run measures in
the last one only.
Every end-to-end time is divided by the host's slowness sampled while
it ran (``speed.py``), so it reads as seconds at the sizing host's
nominal speed (see ``README.md``).
A pass fails if it raises, fails its output check, or its digest
differs from the one in ``digests.json`` (seed 0) or from the run's
other passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = tuple(suite.WORKLOADS)
#: fresh interpreters per run: each gives a setup_s sample and, untraced,
#: a share of the passes
PROCESSES = 5
#: every process of one run is killed after this long
RUN_DEADLINE_S = 170.0


def _kill(proc: subprocess.Popen) -> None:
    # the worker leads its own session, so this also reaps its pool workers
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)


def _spawn(workload: str, seed: int, mode: str, seconds: float, toy: bool, deadline: float):
    """Run one worker; return (spawn-to-ready seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "suite.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if toy:
        cmd.append("--toy")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill, (proc,))
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        tail = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        _kill(proc)
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not tail:
        raise SystemExit(f"e2e: {workload} worker (--mode {mode}) failed, exit code {code}")
    return ready_s, json.loads(tail[-1])


def _summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _check(passes: list[dict], expected: str | None) -> None:
    """Mark each pass ``failed``: error, wrong digest, or traced-pass drift."""
    reference = expected or next((p["digest"] for p in passes if "digest" in p), None)
    untraced_ff = next((p.get("ff_detected", 0) for p in passes if not p.get("traced")), 0)
    for p in passes:
        p["failed"] = (
            "error" in p
            or p["digest"] != reference
            or (p.get("traced", False) and p["ff_traced"] != untraced_ff)
        )


def run_once(workload: str, seed: int, seconds: float, trace: bool, toy: bool,
             digests: dict, units: dict[str, str]) -> dict:
    """One benchmark run of one workload, over ``PROCESSES`` fresh interpreters."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    modes = ["setup"] * (PROCESSES - 1) + ["trace"] if trace else ["measure"] * PROCESSES
    procs = [_spawn(workload, seed, mode, seconds / PROCESSES, toy, deadline) for mode in modes]
    setup = [ready_s for ready_s, _ in procs]
    setup_slowness = [out["setup_slowness"] for _, out in procs]
    passes = [p for _, out in procs for p in out.get("passes", [])]

    expected = digests.get(workload) if seed == 0 and not toy else None
    _check(passes, expected)
    measured = [p for p in passes if p.get("measured")]
    timed = [p for p in measured if not p["failed"]] or measured
    # times at the sizing host's nominal speed: each set-up and each
    # pass phase over how slow the host ran during it
    samples = {
        "setup_s": [s / slow for s, slow in zip(setup, setup_slowness)],
        "wall_s": [p["wall_s"] / p["slowness"] for p in timed],
        "sims_per_s": [p.get("sims", 0) * p["sim_slowness"] / p["sim_wall_s"] for p in timed],
        "peak_rss_mb": [out["peak_rss_mb"] for _, out in procs if "peak_rss_mb" in out],
    }
    for _, out in procs:
        samples.update({name: [value] for name, value in out.get("layers", {}).items()})
    metrics = {name: _summary(values, units[name]) for name, values in samples.items()}
    failed = sum(p["ops"] for p in passes if p["failed"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "toy": toy,
        "correct": failed == 0,
        "attempted": sum(p["ops"] for p in passes),
        "failed": failed,
        "digest": passes[0].get("digest"),
        "expected_digest": expected,
        "setup_samples": setup,
        "setup_slowness": setup_slowness,
        "passes": passes,
        "metrics": metrics,
        "run_s": time.monotonic() - start,
    }


def result_line(record: dict, names: list[str]) -> dict:
    """A run's one-line result: the named metrics with their units."""
    metrics = record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    # unwind on SIGTERM too, so that _spawn kills the running worker's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="cycles over the workloads")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", help="write the full run set here")
    args = parser.parse_args(argv)

    digests = json.loads((HERE / "digests.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[group]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = []
    for i in range(args.runs):
        for workload in [args.workload] if args.workload else WORKLOADS:
            record = run_once(workload, args.seed + i, args.seconds, bool(args.trace),
                              args.toy, digests, units)
            records.append(record)
            line = result_line(record, names)
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in line["metrics"].items())
            print(f"[e2e] {workload} seed={record['seed']} correct={record['correct']} {shown}",
                  file=sys.stderr)
            print(json.dumps(line), flush=True)
    if args.out:
        host = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }
        doc = {"schema": "repro-bench-e2e/1", "host": host, "seconds": args.seconds,
               "runs": records}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
