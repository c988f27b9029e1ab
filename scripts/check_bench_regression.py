#!/usr/bin/env python
"""Nightly gate: this checkout against a base commit, end to end, on one host.

    python scripts/check_bench_regression.py --base REF

Exports ``REF`` with ``git archive`` into a temporary directory and
copies this checkout's ``benchmarks/e2e/`` and ``BENCHMARK.json`` over
it, so both sides run the same benchmark code, each on its own
``src/``.  Then it runs ``benchmarks/e2e/run.py`` (every workload) on
each side for seeds 1-4.  The side that goes first alternates with the
seed, so each side runs first twice and host drift hits both alike.
Seed 0 is left out because ``run.py`` checks seed-0 digests against
``digests.json``, which a change may re-record on purpose; a change of
output still shows as a digest mismatch between the two sides.

Each side's runs are merged into one run set, written to
``gate-base.json`` and ``gate-change.json`` in the current directory,
and ``benchmarks/e2e/compare.py`` compares the two.  The exit status is
compare.py's: 1 on a ``REGRESSION``, a digest mismatch or a failed
operation.  Eight all-workload runs take about 15 minutes on a two-vCPU
x86_64 VM.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4)


def export(ref: str, dest: Path) -> None:
    """``ref``'s tree at ``dest``, with this checkout's benchmark code."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {ref}: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    e2e = dest / "benchmarks" / "e2e"
    shutil.rmtree(e2e, ignore_errors=True)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", e2e, ignore=shutil.ignore_patterns("__pycache__", ".scratch")
    )
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run(side: Path, seed: int, out: Path) -> dict:
    """One ``run.py`` cycle over every workload in ``side``; its run set."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=side, stdout=subprocess.DEVNULL)
    try:
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()  # run.py unwinds and kills its worker's process group
            proc.wait()
    if not out.exists():
        raise SystemExit(f"{side}: run.py --seed {seed} exited {proc.returncode} with no run set")
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REF", help="commit to compare against")
    args = parser.parse_args(argv)
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": ROOT}
        export(args.base, sides["base"])
        for seed in SEEDS:
            for name in ("base", "change") if seed % 2 else ("change", "base"):
                print(f"[gate] seed {seed}: {name}", file=sys.stderr, flush=True)
                runs[name].append(run(sides[name], seed, Path(tmp) / f"{name}-{seed}.json"))
    for name, sets in runs.items():
        merged = {**sets[0], "runs": [r for s in sets for r in s["runs"]]}
        Path(f"gate-{name}.json").write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    compare = [sys.executable, ROOT / "benchmarks" / "e2e" / "compare.py"]
    return subprocess.run([*compare, "gate-base.json", "gate-change.json"]).returncode


if __name__ == "__main__":
    sys.exit(main())
