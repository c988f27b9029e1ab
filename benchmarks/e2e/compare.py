"""Compare two e2e run sets, per end-to-end metric and workload.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json

Inputs are ``run.py --out`` files; a file with a ``sets`` list (the
committed ``baseline.json``) contributes its sets in order.  For every
(metric, workload) pair it prints each side's median, quartiles and run
count, how much worse the change's median is (positive = worse), and:

- ``REGRESSION`` where that worsening exceeds the metric's bound;
- ``unresolved`` where either side's spread (quartile distance over
  median) exceeds the bound, unless every run of the change beats every
  run of the parent;
- ``gain`` where a claim would hold: the change wins at least 9 in 10 of
  the runs paired by seed (ties count for neither) and the medians
  differ by more than the parent's quartile distance;
- ``ok`` otherwise.

Runs of the same workload and seed must also have the same output
digest.  Exits 1 on a regression, a digest mismatch or a failed
operation in either set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_sets(paths: list[str]) -> list[dict]:
    """Every run set in ``paths``, in order."""
    sets = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        sets.extend(doc["sets"] if "sets" in doc else [doc])
    return sets


def _stats(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _by_seed(runset: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        r["seed"]: r["metrics"][metric]["value"]
        for r in runset["runs"]
        if r["workload"] == workload and metric in r["metrics"]
    }


def compare(parent: dict, change: dict, metrics: list[dict]) -> list[dict]:
    """One row per (workload, metric) present in both sets."""
    workloads = list(dict.fromkeys(r["workload"] for r in parent["runs"]))
    rows = []
    for workload in workloads:
        for m in metrics:
            a = _by_seed(parent, workload, m["name"])
            b = _by_seed(change, workload, m["name"])
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            a_med, a_q1, a_q3 = _stats(list(a.values()))
            b_med, b_q1, b_q3 = _stats(list(b.values()))
            worse = sign * (b_med - a_med) / a_med
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            b_dominates = all(sign * (y - x) < 0 for x in a.values() for y in b.values())
            seeds = sorted(set(a) & set(b))
            wins = sum(sign * (b[s] - a[s]) < 0 for s in seeds)
            gain = (
                bool(seeds)
                and wins >= 0.9 * len(seeds)
                and sign * (a_med - b_med) > a_q3 - a_q1
            )
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif spread > m["bound"] and not b_dominates:
                verdict = "unresolved"
            elif gain:
                verdict = "gain"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "parent": (a_med, a_q1, a_q3, len(a)),
                    "change": (b_med, b_q1, b_q3, len(b)),
                    "worse": worse,
                    "spread": spread,
                    "wins": (wins, len(seeds)),
                    "verdict": verdict,
                }
            )
    return rows


def digest_mismatches(parent: dict, change: dict) -> list[tuple[str, int]]:
    """(workload, seed) pairs whose output digests differ between the sets."""
    seen = {(r["workload"], r["seed"], r["toy"]): r["digest"] for r in parent["runs"]}
    return [
        (r["workload"], r["seed"])
        for r in change["runs"]
        if seen.get((r["workload"], r["seed"], r["toy"]), r["digest"]) != r["digest"]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="run.py --out files (parent first)")
    args = parser.parse_args(argv)
    sets = load_sets(args.files)
    if len(sets) != 2:
        parser.error(f"need exactly two run sets, got {len(sets)}")
    parent, change = sets
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def cell(s):
        return f"{s[0]:10.4g} [{s[1]:.4g}, {s[2]:.4g}] n={s[3]}"

    rows = compare(parent, change, bench["end_to_end"])
    print(f"{'workload':15} {'metric':12} {'parent':>32} {'change':>32} {'worse':>7} "
          f"{'spread':>6} {'wins':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:15} {r['metric']:12} {cell(r['parent']):>32} "
              f"{cell(r['change']):>32} {r['worse']:+7.1%} {r['spread']:6.1%} "
              f"{r['wins'][0]:>3}/{r['wins'][1]:<2}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] == "REGRESSION"]
    mismatched = digest_mismatches(parent, change)
    for workload, seed in mismatched:
        print(f"DIGEST MISMATCH: {workload} seed={seed}")
    failed = sum(r["failed"] for s in sets for r in s["runs"])
    if failed:
        print(f"FAILED OPERATIONS: {failed}")
    return 1 if bad or mismatched or failed else 0


if __name__ == "__main__":
    sys.exit(main())
