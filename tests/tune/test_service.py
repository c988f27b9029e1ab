"""End-to-end: TOML spec -> run_tune -> canonical TUNE payload.

Acceptance contract of the tuning PR: the report is a pure function of
the spec (byte-identical across ``--jobs`` widths and across warm
reruns), the warm rerun executes zero simulations, and the reported
best can never be worse than the paper default it is compared against.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

import repro.fleet.engine as engine
import repro.tune.evaluate as evaluate
from repro.experiments.cache import ResultCache
from repro.fleet.spec import SpecError
from repro.tune.classes import WORKLOAD_CLASSES
from repro.tune.evaluate import Evaluator
from repro.tune.report import SCHEMA, class_payload, rank_importance, write_tune_json
from repro.tune.search import run_search
from repro.tune.service import TuneSpec, run_tune, tune_spec_from_toml
from repro.tune.space import default_config

#: small budget + short horizon: machinery coverage, minutes matter
SPEC_TOML = """
[tune]
name = "t"
seed = 9
budget = 8
method = "lhs"
classes = ["periodic-mix"]
horizon_ms = 400.0

[[param]]
knob = "spread"

[[param]]
knob = "quantile"
"""


class TestSpecParsing:
    def test_full_document(self):
        spec = tune_spec_from_toml(SPEC_TOML)
        assert (spec.name, spec.seed, spec.budget, spec.method) == ("t", 9, 8, "lhs")
        assert spec.classes == ("periodic-mix",)
        assert spec.horizon_ns == 400_000_000
        assert spec.space.names == ("spread", "quantile")

    def test_defaults(self):
        spec = tune_spec_from_toml('[tune]\nname = "d"\n')
        assert spec.budget == 24
        assert spec.method == "lhs"
        assert spec.classes == ("audio-burst",)
        assert spec.horizon_ns == 4_000_000_000
        assert spec.space.names == ("spread", "window", "quantile", "sampling_period")

    def test_objective_weights(self):
        spec = tune_spec_from_toml(
            '[tune]\nname = "d"\n[objective]\nmiss_weight = 10.0\n'
        )
        assert spec.objective.miss_weight == 10.0

    @pytest.mark.parametrize(
        "text,needle",
        [
            ('[tune]\nname = "x"\noops = 1\n', "unknown key"),
            ('[tune]\nname = "x"\n[oops]\n', "unknown key"),
            ('[tune]\nname = "x"\n[objective]\noops = 1\n', "unknown key"),
            ('[tune]\nname = "x"\nmethod = "anneal"\n', "method"),
            ('[tune]\nname = "x"\nclasses = ["no-such-class"]\n', "workload class"),
            ('[tune]\nname = "x"\nclasses = []\n', "classes"),
            ('[tune]\nname = "x"\nbudget = 1\n', "budget"),
            ('[tune]\nname = "x"\nhorizon_ms = 0.0\n', "horizon_ms"),
            ('[tune]\nname = ""\n', "name"),
            ('[tune]\nname = "x"\n[objective]\nmiss_weight = -1.0\n', "miss_weight"),
        ],
    )
    def test_malformed_documents_rejected(self, text, needle):
        with pytest.raises(SpecError, match=needle):
            tune_spec_from_toml(text)


class TestRunTune:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        spec = tune_spec_from_toml(SPEC_TOML)
        cache_dir = tmp_path_factory.mktemp("tune-cache")
        cold = run_tune(spec, cache=ResultCache(cache_dir))
        warm = run_tune(spec, cache=ResultCache(cache_dir))
        parallel = run_tune(spec, jobs=2, cache=None)
        return spec, cold, warm, parallel

    def test_payload_shape(self, outcome):
        spec, cold, _, _ = outcome
        payload = cold.payload
        assert payload["schema"] == SCHEMA
        assert payload["name"] == spec.name
        assert set(payload["classes"]) == set(spec.classes)
        cls = payload["classes"]["periodic-mix"]
        # budget evaluations + the separately scored default config
        assert cls["evaluations"] == spec.budget
        assert len(cls["trace"]) == spec.budget
        assert [s["name"] for s in cls["sensitivity"]] in (
            ["spread", "quantile"], ["quantile", "spread"]
        )

    def test_best_never_loses_to_the_default(self, outcome):
        _, cold, _, _ = outcome
        cls = cold.payload["classes"]["periodic-mix"]
        assert cls["best_score"] <= cls["default_score"]
        assert cls["improvement"] == pytest.approx(
            cls["default_score"] - cls["best_score"]
        )

    def test_warm_rerun_is_byte_identical_and_sim_free(self, outcome):
        _, cold, warm, _ = outcome
        assert cold.sims_run > 0
        assert warm.sims_run == 0
        assert json.dumps(cold.payload, sort_keys=True) == json.dumps(
            warm.payload, sort_keys=True
        )

    def test_jobs_width_does_not_change_the_payload(self, outcome):
        _, cold, _, parallel = outcome
        assert json.dumps(cold.payload, sort_keys=True) == json.dumps(
            parallel.payload, sort_keys=True
        )

    def test_write_tune_json_is_canonical(self, outcome, tmp_path):
        _, cold, _, _ = outcome
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_tune_json(a, cold.payload)
        write_tune_json(b, cold.payload)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["schema"] == SCHEMA


class TestWarmPool:
    """One pool per tune run: forked on the first miss, reaped on the way out."""

    def test_one_pool_per_cold_tune_and_none_when_warm(self, tmp_path, monkeypatch):
        started = []
        real = engine.ProcessPoolExecutor

        def spy(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", spy)
        spec = tune_spec_from_toml(SPEC_TOML)
        cold = run_tune(spec, jobs=2, cache=ResultCache(tmp_path))
        assert cold.sims_run > 1
        assert started == [2]
        assert not multiprocessing.active_children()
        warm = run_tune(spec, jobs=2, cache=ResultCache(tmp_path))
        assert warm.sims_run == 0
        assert started == [2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing sim reaches the workers through fork",
    )
    def test_workers_are_reaped_when_a_sim_fails_in_one(self, monkeypatch):
        def failing_sim(spec, fast_forward):
            raise RuntimeError(os.getpid())

        monkeypatch.setattr(engine, "run_sim", failing_sim)
        with pytest.raises(RuntimeError) as failure:
            run_tune(tune_spec_from_toml(SPEC_TOML), jobs=2, cache=None)
        assert failure.value.args[0] != os.getpid()  # raised in a worker
        assert not multiprocessing.active_children()


def _tuned_alone(spec: TuneSpec, offset: int) -> dict:
    """The section of class ``spec.classes[offset]`` when nothing else is
    tuned with it: its default scored, then its own search driven batch
    by batch (the search seed is offset by the class's position)."""
    cls = WORKLOAD_CLASSES[spec.classes[offset]]
    base = default_config(spec.space)
    ev = Evaluator(spec.objective, seed=spec.seed, horizon_ns=spec.horizon_ns)
    default_score = ev.evaluate_batch([(cls, dict(base))])[0]
    result = run_search(
        spec.space,
        lambda configs: ev.evaluate_batch([(cls, c) for c in configs]),
        budget=spec.budget,
        seed=spec.seed + offset,
        method=spec.method,
        initial=dict(base),
    )
    return class_payload(result, default_config=base, default_score=default_score)


class TestLockstep:
    """Every class searches in lockstep: one evaluation, and one fleet
    call, per generation, with each class's section as if tuned alone."""

    SPEC = dataclasses.replace(
        tune_spec_from_toml(SPEC_TOML), classes=("periodic-mix", "audio-burst")
    )

    @pytest.fixture(scope="class")
    def alone(self):
        return [
            json.dumps(_tuned_alone(self.SPEC, offset), sort_keys=True)
            for offset in range(len(self.SPEC.classes))
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_section_equals_the_class_tuned_alone(self, alone, jobs):
        payload = run_tune(self.SPEC, jobs=jobs).payload
        for key, section in zip(self.SPEC.classes, alone, strict=True):
            assert json.dumps(payload["classes"][key], sort_keys=True) == section

    def test_one_fleet_call_per_generation_with_misses(self, monkeypatch):
        calls = []
        real = evaluate.run_fleet

        def spy(specs, **kwargs):
            specs = list(specs)
            calls.append(sorted({spec.group.split("/")[1] for spec in specs}))
            return real(specs, **kwargs)

        monkeypatch.setattr(evaluate, "run_fleet", spy)
        run_tune(dataclasses.replace(self.SPEC, classes=self.SPEC.classes[:1]))
        generations = len(calls)
        calls.clear()
        run_tune(self.SPEC)
        # every generation of both searches has misses here, so each
        # call runs both classes' sims; one search per call would make
        # twice as many
        assert len(calls) == generations
        assert calls == [sorted(self.SPEC.classes)] * generations


class TestTuneSpecValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(SpecError, match="workload class"):
            TuneSpec(name="x", classes=("nope",))


class TestRankImportance:
    def test_orders_by_absolute_delta(self):
        ranked = rank_importance(10.0, {"a": 13.0, "b": 8.0, "c": 10.5})
        assert [r["name"] for r in ranked] == ["a", "b", "c"]
        assert [r["harmful"] for r in ranked] == [False, True, False]

    def test_ties_break_by_name(self):
        ranked = rank_importance(0.0, {"b": 1.0, "a": -1.0})
        assert [r["name"] for r in ranked] == ["a", "b"]
