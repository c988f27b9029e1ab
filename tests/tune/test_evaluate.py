"""The evaluation backend: objective maths, memoisation, disk dedup.

Satellite contract: a candidate's score is a pure function of
(class, seed, horizon, objective, config); repeats within a run hit the
in-run memo, reruns against the same cache directory replay from disk
with **zero** new simulations.
"""

import json

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache, canonical_kwargs
from repro.tune import evaluate
from repro.tune.classes import WORKLOAD_CLASSES, controller_from_config
from repro.tune.evaluate import CACHE_EXPERIMENT, Evaluator, Objective

#: a deliberately short horizon: these tests exercise the caching
#: machinery, not the quality of the scores
HORIZON_NS = 400_000_000

PERIODIC = WORKLOAD_CLASSES["periodic-mix"]
CONFIG_A = {"spread": 0.1, "quantile": 0.9}
CONFIG_B = {"spread": 0.3, "quantile": 0.7}
A = (PERIODIC, CONFIG_A)
B = (PERIODIC, CONFIG_B)


def make_evaluator(cache=None):
    return Evaluator(
        Objective(),
        seed=3,
        horizon_ns=HORIZON_NS,
        cache=cache,
    )


class TestObjective:
    def test_defaults_weight_misses_dominantly(self):
        obj = Objective()
        assert obj.miss_weight > obj.latency_weight > obj.p99_weight

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(miss_weight=-1.0),
            dict(latency_weight=float("nan")),
            dict(p99_weight=float("inf")),
        ],
    )
    def test_invalid_weights_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Objective(**kwargs)

    def test_score_formula(self):
        class FakeAggregate:
            miss_rate = 0.02
            lat_mean = 3_000_000  # 3 ms in ns

            def quantile(self, q):
                assert q == 0.99
                return 8_000_000  # 8 ms in ns

        obj = Objective(miss_weight=100.0, latency_weight=2.0, p99_weight=0.5)
        assert obj.score(FakeAggregate()) == pytest.approx(100 * 0.02 + 2 * 3.0 + 0.5 * 8.0)

    def test_jsonable_round_trip(self):
        obj = Objective(miss_weight=7.0)
        assert Objective(**obj.to_jsonable()) == obj


class TestControllerFromConfig:
    def test_maps_knob_names_onto_the_spec(self):
        c = controller_from_config(
            {"spread": 0.2, "window": 8, "quantile": 0.75, "sampling_period": 80_000_000}
        )
        assert (c.spread, c.window, c.quantile, c.sampling_period_ns) == (
            0.2, 8, 0.75, 80_000_000
        )

    def test_missing_keys_keep_spec_defaults(self):
        assert controller_from_config({}).law == "lfspp"

    def test_invalid_values_rejected_by_the_registry(self):
        with pytest.raises(Exception, match="quantile"):
            controller_from_config({"quantile": 2.0})


class TestEvaluator:
    def test_scores_are_deterministic_and_finite(self):
        a = make_evaluator().evaluate_batch([A, B])
        b = make_evaluator().evaluate_batch([A, B])
        assert a == b
        assert all(s >= 0 for s in a)

    def test_distinct_configs_get_distinct_sims(self):
        ev = make_evaluator()
        ev.evaluate_batch([A, B])
        assert ev.sims_run == 2
        assert ev.evaluations == 2
        assert ev.cache_hits == 0

    def test_repeat_within_a_run_hits_the_memo(self):
        ev = make_evaluator()
        first = ev.evaluate_batch([A])
        second = ev.evaluate_batch([A])
        assert first == second
        assert ev.sims_run == 1
        assert ev.cache_hits == 1

    def test_warm_rerun_replays_from_disk(self, tmp_path):
        cold = make_evaluator(cache=ResultCache(tmp_path))
        scores = cold.evaluate_batch([A, B])
        assert cold.sims_run == 2

        warm = make_evaluator(cache=ResultCache(tmp_path))
        assert warm.evaluate_batch([A, B]) == scores
        assert warm.sims_run == 0
        assert warm.cache_hits == 2

    def test_cache_key_covers_the_whole_provenance(self, tmp_path):
        ev = make_evaluator(cache=ResultCache(tmp_path))
        base = ev._disk_key(*A)
        assert ev._disk_key(PERIODIC, dict(CONFIG_A)) == base  # canonical in dict identity
        assert ev._disk_key(*B) != base
        assert ev._disk_key(WORKLOAD_CLASSES["audio-burst"], CONFIG_A) != base

        other_seed = Evaluator(
            Objective(),
            seed=4,
            horizon_ns=HORIZON_NS,
            cache=ResultCache(tmp_path),
        )
        assert other_seed._disk_key(*A) != base

        other_objective = Evaluator(
            Objective(miss_weight=1.0),
            seed=3,
            horizon_ns=HORIZON_NS,
            cache=ResultCache(tmp_path),
        )
        assert other_objective._disk_key(*A) != base

    def test_warm_batch_encodes_each_candidate_once(self, tmp_path, monkeypatch):
        a, b = make_evaluator(cache=ResultCache(tmp_path)).evaluate_batch([A, B])
        texts = []

        def counting(kwargs):
            texts.append(canonical_kwargs(kwargs))
            return texts[-1]

        warm = make_evaluator(cache=ResultCache(tmp_path))
        monkeypatch.setattr(evaluate, "canonical_kwargs", counting)
        monkeypatch.setattr(cache_mod, "canonical_kwargs", counting)
        assert warm.evaluate_batch([A, B, A]) == [a, b, a]
        assert warm.evaluate_batch([B, A]) == [b, a]
        assert len(texts) == 5  # one text per candidate: memo key and disk key alike
        assert warm.sims_run == 0 and warm.cache_hits == 5
        assert warm.cache.hits == 3  # the second batch is served by the memo

    def test_sidecar_records_the_whole_provenance(self, tmp_path):
        ev = make_evaluator(cache=ResultCache(tmp_path))
        ev.evaluate_batch([A])
        meta = tmp_path / CACHE_EXPERIMENT / f"{ev._disk_key(*A)}.json"
        kwargs = json.loads(json.loads(meta.read_text())["kwargs"])
        assert kwargs == {
            "class": PERIODIC.name,
            "seed": 3,
            "horizon_ns": HORIZON_NS,
            "objective": Objective().to_jsonable(),
            "config": CONFIG_A,
        }
