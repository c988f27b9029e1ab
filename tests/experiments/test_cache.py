"""Tests for the content-addressed on-disk result cache."""

import importlib.util
import json
import os
import pickle
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import REGISTRY, cache as cache_mod
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import (
    ResultCache,
    canonical_kwargs,
    code_digest,
    package_digest,
    tree_digest,
)
from repro.experiments.report import BENCH_QUICK_OVERRIDES


def _result(**rows) -> ExperimentResult:
    r = ExperimentResult(experiment="x", title="X")
    if rows:
        r.add_row(**rows)
    return r


class TestCanonicalKwargs:
    def test_dict_order_insensitive(self):
        assert canonical_kwargs({"a": 1, "b": 2}) == canonical_kwargs({"b": 2, "a": 1})

    def test_tuple_and_list_normalise(self):
        assert canonical_kwargs({"h": (1.0, 2.0)}) == canonical_kwargs({"h": [1.0, 2.0]})

    def test_value_changes_change_the_form(self):
        assert canonical_kwargs({"reps": 10}) != canonical_kwargs({"reps": 11})

    def test_non_literals_rejected(self):
        with pytest.raises(TypeError):
            canonical_kwargs({"map_fn": map})

    @pytest.mark.parametrize("value", [{1, 2}, frozenset(), lambda: 0, object()])
    def test_sets_callables_and_objects_rejected(self, value):
        with pytest.raises(TypeError, match="not cacheable"):
            canonical_kwargs({"x": value})

    def test_float_and_string_differ(self):
        assert canonical_kwargs({"x": 1.0}) != canonical_kwargs({"x": "1.0"})
        assert canonical_kwargs({"x": [0.5]}) != canonical_kwargs({"x": ["0.5"]})

    def test_numpy_float_keys_like_the_python_float(self):
        assert canonical_kwargs({"x": np.float64(0.1)}) == canonical_kwargs({"x": 0.1})

    @pytest.mark.parametrize(
        ("scalar", "value"),
        [(np.int64(7), 7), (np.int32(-3), -3), (np.bool_(True), True), (np.bool_(False), False)],
    )
    def test_numpy_scalars_key_like_python_values(self, scalar, value):
        assert canonical_kwargs({"x": scalar}) == canonical_kwargs({"x": value})
        assert canonical_kwargs({"x": [scalar]}) == canonical_kwargs({"x": (value,)})

    def test_bool_and_int_differ(self):
        assert canonical_kwargs({"x": True}) != canonical_kwargs({"x": 1})

    def test_nested_dict_order_insensitive(self):
        a = {"outer": {"b": {"y": 2, "x": 1}, "a": [1, {"q": 0, "p": 1}]}}
        b = {"outer": {"a": [1, {"p": 1, "q": 0}], "b": {"x": 1, "y": 2}}}
        assert canonical_kwargs(a) == canonical_kwargs(b)

    def test_nan_keys_the_same_way_every_time(self):
        nan = float("nan")
        assert canonical_kwargs({"x": nan}) == canonical_kwargs({"x": float("nan")})
        assert canonical_kwargs({"x": np.float64(nan)}) == canonical_kwargs({"x": nan})
        assert canonical_kwargs({"x": nan}) != canonical_kwargs({"x": "nan"})

    def test_floats_keep_their_round_trip_form(self):
        text = canonical_kwargs({"x": 0.1, "y": 1e-300, "z": 2.0**60})
        assert json.loads(text) == {"x": 0.1, "y": 1e-300, "z": 2.0**60}


class TestKeys:
    def test_kwarg_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1 = cache.key("fig06", {"reps": 10}, "digest")
        k2 = cache.key("fig06", {"reps": 11}, "digest")
        assert k1 != k2

    def test_code_digest_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1 = cache.key("fig06", {"reps": 10}, "digest-a")
        k2 = cache.key("fig06", {"reps": 10}, "digest-b")
        assert k1 != k2

    def test_name_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key("fig06", {}, "d") != cache.key("fig07", {}, "d")

    def test_key_for_tracks_module_source(self, tmp_path, monkeypatch):
        mod_path = tmp_path / "exp_mod.py"
        mod_path.write_text(
            textwrap.dedent(
                """
                from repro.experiments.base import ExperimentResult

                def run():
                    return ExperimentResult(experiment="tmp", title="v1")
                """
            )
        )
        spec = importlib.util.spec_from_file_location("exp_mod_under_test", mod_path)
        mod = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "exp_mod_under_test", mod)
        spec.loader.exec_module(mod)
        monkeypatch.setitem(REGISTRY, "tmpexp", mod)

        cache = ResultCache(tmp_path / "cache")
        key_v1 = cache.key_for("tmpexp", {})
        mod_path.write_text(mod_path.read_text().replace("v1", "v2"))
        key_v2 = cache.key_for("tmpexp", {})
        assert key_v1 != key_v2

    def test_digest_of_registry_entries_resolves(self):
        cache = ResultCache()
        # a module entry and a SimpleNamespace ablation entry both key
        assert cache.key_for("fig06", {}) != cache.key_for("abl-spread", {})

    def test_every_registry_entry_keys_under_the_quick_overrides(self):
        cache = ResultCache()
        keys = {cache.key_for(name, BENCH_QUICK_OVERRIDES.get(name, {})) for name in REGISTRY}
        assert len(keys) == len(REGISTRY)
        assert all(len(k) == 32 and int(k, 16) >= 0 for k in keys)

    def test_key_for_tracks_whole_package_digest(self, monkeypatch):
        """Editing *any* repro source (simulator, workloads, a sibling
        experiment module) must invalidate every experiment's key."""
        import repro
        from pathlib import Path

        root = str(Path(repro.__file__).resolve().parent)
        cache = ResultCache()
        before = cache.key_for("fig06", {})
        # simulate an edit anywhere in the repro tree by swapping the
        # memoised package digest
        monkeypatch.setitem(cache_mod._PACKAGE_DIGESTS, root, "edited-tree")
        assert cache.key_for("fig06", {}) != before


class TestStorage:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result(a=1, b=2.5)
        cache.put("fig06", "k1", result, kwargs={"reps": 2}, elapsed_s=1.25)
        assert cache.get("fig06", "k1") == result
        assert cache.hits == 1 and cache.misses == 0
        meta = json.loads((tmp_path / "fig06" / "k1.json").read_text())
        assert meta["elapsed_s"] == 1.25

    @pytest.mark.parametrize("sidecar", [None, b"{not json"])
    def test_hit_does_not_need_the_sidecar(self, tmp_path, sidecar):
        cache = ResultCache(tmp_path)
        result = _result(a=1)
        cache.put("fig06", "k1", result)
        meta = tmp_path / "fig06" / "k1.json"
        if sidecar is None:
            meta.unlink()
        else:
            meta.write_bytes(sidecar)
        assert cache.get("fig06", "k1") == result
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_absent_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("fig06", "nope") is None
        assert cache.misses == 1

    def test_miss_on_absent_or_file_shaped_experiment_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "absent")
        assert cache.get("fig06", "k1") is None
        (tmp_path / "absent").write_bytes(b"a file where the cache root should be")
        assert cache.get("fig06", "k1") is None
        assert cache.misses == 2 and cache.hits == 0

    def test_hit_reads_the_entry_without_checking_for_it(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        result = _result(a=1)
        cache.put("fig06", "k1", result)

        def forbidden(*args, **kwargs):
            raise AssertionError("the entry was checked for before it was read")

        with monkeypatch.context() as m:
            m.setattr(Path, "exists", forbidden)
            m.setattr(Path, "is_file", forbidden)
            m.setattr(os.path, "exists", forbidden)
            m.setattr(os.path, "isfile", forbidden)
            m.setattr(os, "stat", forbidden)
            assert cache.get("fig06", "k1") == result
            assert cache.get("fig06", "k2") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupted_entry_is_evicted_and_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", "k1", _result(a=1))
        pkl = tmp_path / "fig06" / "k1.pkl"
        pkl.write_bytes(b"this is not a pickle")
        assert cache.get("fig06", "k1") is None
        assert not pkl.exists()  # evicted
        # a fresh put over the evicted slot works
        cache.put("fig06", "k1", _result(a=2))
        assert cache.get("fig06", "k1").rows == [{"a": 2}]

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", "k1", _result(a=1))
        pkl = tmp_path / "fig06" / "k1.pkl"
        pkl.write_bytes(pkl.read_bytes()[:10])  # simulate a crashed writer
        assert cache.get("fig06", "k1") is None

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "fig06").mkdir(parents=True)
        (tmp_path / "fig06" / "k1.pkl").write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get("fig06", "k1") is None

    def test_meta_sidecar_is_human_readable(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", "k1", _result(a=1), kwargs={"reps": 2})
        meta = json.loads((tmp_path / "fig06" / "k1.json").read_text())
        assert meta["experiment"] == "fig06"
        assert meta["key"] == "k1"
        assert "reps" in meta["kwargs"]

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", "k1", _result(a=1))
        cache.put("fig06", "k1", _result(a=2))  # overwrite same key
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.get("fig06", "k1").rows == [{"a": 2}]

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", "k1", _result(a=1))
        cache.put("fig07", "k2", _result(a=2))
        assert cache.clear() == 4  # 2 pickles + 2 meta files
        assert cache.get("fig06", "k1") is None


class TestTreeDigest:
    def _tree(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
        (tmp_path / "pkg" / "sub" / "b.py").write_text("B = 2\n")
        return tmp_path / "pkg"

    def test_stable_for_unchanged_tree(self, tmp_path):
        root = self._tree(tmp_path)
        assert tree_digest(root) == tree_digest(root)

    def test_edit_anywhere_changes_digest(self, tmp_path):
        root = self._tree(tmp_path)
        before = tree_digest(root)
        (root / "sub" / "b.py").write_text("B = 3\n")
        assert tree_digest(root) != before

    def test_new_file_changes_digest(self, tmp_path):
        root = self._tree(tmp_path)
        before = tree_digest(root)
        (root / "c.py").write_text("C = 1\n")
        assert tree_digest(root) != before

    def test_package_digest_is_memoised(self):
        assert package_digest() == package_digest()
        assert len(package_digest()) == 64


class TestCodeDigest:
    def test_stable_for_same_modules(self):
        from repro.experiments import fig06

        assert code_digest(fig06) == code_digest(fig06)

    def test_differs_across_modules(self):
        from repro.experiments import fig06, fig07

        assert code_digest(fig06) != code_digest(fig07)

    def test_skips_sourceless_entries(self):
        ns = SimpleNamespace()  # no __file__
        from repro.experiments import fig06

        assert code_digest(fig06, ns) == code_digest(fig06)
