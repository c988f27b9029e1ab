"""Toy-size smoke test of the e2e benchmark: ``pytest benchmarks/e2e -q``.

Runs every workload once at toy size (40 frames, 6 sims, budget 4) with
tracing on, through the same ``run.py`` command the benchmark uses.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from layers import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toy_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "toy.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy", "--trace", "1", "--seconds", "1",
         "--out", str(out)],
        cwd=ROOT, check=True, timeout=600, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def test_every_named_metric_is_present_with_its_unit(toy_set):
    assert {r["workload"] for r in toy_set["runs"]} == {w["name"] for w in BENCH["workloads"]}
    for run in toy_set["runs"]:
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert run["metrics"][m["name"]]["unit"] == m["unit"], (run["workload"], m["name"])


def test_layer_shares_sum_to_one(toy_set):
    for run in toy_set["runs"]:
        m = {name: v["value"] for name, v in run["metrics"].items()}
        accounted = m["trace.wall_s"] - m["trace.wrapper_s"]
        shares = [m[name] / accounted for name in SELF_TIME_METRICS]
        assert sum(shares) == pytest.approx(1.0, abs=0.05), run["workload"]


def test_traced_pass_reproduces_the_untraced_digests(toy_set):
    for run in toy_set["runs"]:
        assert run["correct"] and run["failed"] == 0, run["workload"]
        assert [p.get("traced", False) for p in run["passes"]] == [False, False, True]
        assert len({p["digest"] for p in run["passes"]}) == 1, run["workload"]


def test_compare_flags_a_20_percent_slowdown(toy_set):
    def flagged(factor):
        slowed = copy.deepcopy(toy_set)
        for run in slowed["runs"]:
            run["metrics"]["wall_s"]["value"] *= factor
        rows = compare.compare(toy_set, slowed, BENCH["end_to_end"])
        assert rows
        return {(r["workload"], r["metric"]) for r in rows if r["verdict"] == "REGRESSION"}

    assert flagged(1.0) == set()
    assert flagged(1.20) == {(r["workload"], "wall_s") for r in toy_set["runs"]}


def test_every_bound_has_its_recorded_reason():
    bounds = json.loads((HERE / "bounds.json").read_text())
    assert set(bounds) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert bounds[m["name"]]["bound"] == m["bound"], m["name"]
        assert bounds[m["name"]]["why"], m["name"]
