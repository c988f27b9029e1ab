"""Tests for the process-pool experiment runner.

The determinism tests are the contract the whole fan-out layer rests on:
``--jobs 1`` and ``--jobs 4`` must produce identical results, because
every work unit derives its seed from its index, never from worker
identity or completion order.  (Select them with ``pytest -k
determinism``.)
"""

import functools
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from repro.experiments import REGISTRY
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunOutcome, _run_entry, run_experiment, run_many
from repro.fleet import engine

#: in-process call counter for cache tests (jobs=1 runs in this process)
CALLS: list[str] = []


def _dummy_unit(seed: int, scale: float) -> float:
    return random.Random(seed).random() * scale


def _dummy_run(*, reps: int = 4, seed0: int = 100, scale: float = 1.0, map_fn=map):
    CALLS.append("dummy")
    result = ExperimentResult(experiment="dummy", title="Deterministic dummy")
    values = list(map_fn(_dummy_unit, [seed0 + r for r in range(reps)], [scale] * reps))
    for r, v in enumerate(values):
        result.add_row(rep=r, value=v)
    return result


def _plain_run(*, reps: int = 2):
    # no map_fn parameter: the runner must fall back to a serial call
    CALLS.append("plain")
    result = ExperimentResult(experiment="plain", title="No sharding hook")
    for r in range(reps):
        result.add_row(rep=r, value=r * r)
    return result


@pytest.fixture(autouse=True)
def _register_dummies(monkeypatch):
    monkeypatch.setitem(REGISTRY, "dummy", SimpleNamespace(run=_dummy_run, __doc__="Dummy."))
    monkeypatch.setitem(REGISTRY, "plain", SimpleNamespace(run=_plain_run, __doc__="Plain."))
    CALLS.clear()


@pytest.fixture
def executors(monkeypatch):
    """Every executor the one pool constructor builds, by ``max_workers``."""
    started: list[int] = []

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", spy)
    return started


class TestDeterminism:
    def test_determinism_dummy_jobs_1_vs_4(self):
        serial = run_experiment("dummy", {"reps": 8}, jobs=1)
        parallel = run_experiment("dummy", {"reps": 8}, jobs=4)
        assert serial.result.to_jsonable() == parallel.result.to_jsonable()
        assert parallel.jobs == 4

    def test_determinism_fig10_jobs_1_vs_4(self):
        overrides = {"tracing_times_s": (0.2, 0.5, 1.0)}
        serial = run_experiment("fig10", overrides, jobs=1)
        parallel = run_experiment("fig10", overrides, jobs=4)
        assert serial.result.to_jsonable() == parallel.result.to_jsonable()

    def test_determinism_fig12_jobs_1_vs_4(self):
        overrides = {"reps": 3, "duration_s": 3.0}
        serial = run_experiment("fig12", overrides, jobs=1)
        parallel = run_experiment("fig12", overrides, jobs=4)
        assert serial.result.to_jsonable() == parallel.result.to_jsonable()

    def test_determinism_events_jobs_1_vs_2(self):
        overrides = {"reps": 2, "n_frames": 300}
        serial = run_experiment("events-vs-periodic", overrides, jobs=1).result
        parallel = run_experiment("events-vs-periodic", overrides, jobs=2).result
        assert serial.to_jsonable() == parallel.to_jsonable()
        # the event trigger's claims over the periodic controller
        by_mode = {row["mode"]: row for row in serial.rows}
        periodic, event = by_mode["periodic"], by_mode["event"]
        assert event["steady_rate"] * 3 <= periodic["steady_rate"]
        assert event["settling_ms"] <= periodic["settling_ms"]
        assert event["miss_ratio"] <= periodic["miss_ratio"] + 0.01

    def test_seed_derivation_is_index_based(self):
        # dropping reps from 8 to 4 keeps the first 4 units identical
        full = run_experiment("dummy", {"reps": 8}, jobs=2).result
        half = run_experiment("dummy", {"reps": 4}, jobs=3).result
        assert full.rows[:4] == half.rows


class TestRunExperiment:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_serial_fallback_without_map_fn_hook(self):
        out = run_experiment("plain", jobs=4)
        assert isinstance(out, RunOutcome)
        assert [r["value"] for r in out.result.rows] == [0, 1]
        assert CALLS == ["plain"]

    def test_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiment("dummy", {"reps": 3}, cache=cache)
        second = run_experiment("dummy", {"reps": 3}, cache=cache)
        assert not first.cached and second.cached
        assert second.elapsed_s == 0.0
        assert first.result.to_jsonable() == second.result.to_jsonable()
        assert CALLS == ["dummy"]  # computed exactly once

    def test_cache_key_ignores_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiment("dummy", {"reps": 3}, jobs=1, cache=cache)
        second = run_experiment("dummy", {"reps": 3}, jobs=4, cache=cache)
        assert second.cached
        assert first.key == second.key

    def test_shards_on_one_engine_pool(self, executors):
        run_experiment("dummy", {"reps": 4}, jobs=2)
        assert executors == [2]

    def test_cache_hit_starts_no_pool(self, tmp_path, executors):
        cache = ResultCache(tmp_path)
        run_experiment("dummy", {"reps": 3}, cache=cache)
        assert run_experiment("dummy", {"reps": 3}, jobs=2, cache=cache).cached
        assert executors == []


class TestRunMany:
    def test_results_in_request_order(self):
        outs = run_many(["plain", "dummy"], {"dummy": {"reps": 2}})
        assert [o.name for o in outs] == ["plain", "dummy"]
        assert all(not o.cached for o in outs)

    def test_parallel_matches_serial(self):
        serial = run_many(["dummy", "plain"], {"dummy": {"reps": 6}}, jobs=1)
        parallel = run_many(["dummy", "plain"], {"dummy": {"reps": 6}}, jobs=2)
        for s, p in zip(serial, parallel, strict=True):
            assert s.result.to_jsonable() == p.result.to_jsonable()

    def test_parallel_matches_serial_under_spawn(self, monkeypatch):
        """Workers receive the run callable, not a registry name, so even
        dynamically registered experiments survive a ``spawn`` start
        method (where a fresh interpreter never sees the monkeypatched
        ``REGISTRY``)."""
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(engine, "ProcessPoolExecutor", spawn)
        serial = run_many(["dummy"], {"dummy": {"reps": 4}}, jobs=1)
        parallel = run_many(["dummy"], {"dummy": {"reps": 4}}, jobs=2)
        assert serial[0].result.to_jsonable() == parallel[0].result.to_jsonable()

    def test_shards_on_one_engine_pool(self, executors):
        run_many(["dummy", "plain"], jobs=2)
        assert executors == [2]

    def test_cache_hits_start_no_pool(self, tmp_path, executors):
        cache = ResultCache(tmp_path)
        run_many(["dummy", "plain"], cache=cache)
        outs = run_many(["dummy", "plain"], jobs=2, cache=cache)
        assert all(o.cached for o in outs)
        assert executors == []

    def test_worker_body_never_touches_registry(self, monkeypatch):
        # simulate a spawn worker: the dynamic entry is absent over there
        monkeypatch.delitem(REGISTRY, "dummy")
        result, elapsed = _run_entry(_dummy_run, {"reps": 2})
        assert [r["rep"] for r in result.rows] == [0, 1]
        assert elapsed >= 0.0

    def test_unknown_name_fails_fast(self):
        with pytest.raises(KeyError):
            run_many(["dummy", "fig99"])
        assert CALLS == []  # nothing ran before the failure

    def test_cache_serves_hits_and_computes_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("dummy", {"reps": 2}, cache=cache)
        CALLS.clear()
        outs = run_many(["dummy", "plain"], {"dummy": {"reps": 2}}, cache=cache)
        assert outs[0].cached and not outs[1].cached
        assert CALLS == ["plain"]
