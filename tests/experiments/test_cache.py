"""Tests for the content-addressed on-disk result cache."""

import importlib.util
import json
import pickle
import sys
import textwrap
from types import SimpleNamespace

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


class TestMaxEntries:
    """The ``max_entries`` bound evicts least-recently-used entries."""

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            cache.put("fig06", f"k{i}", _result(i=i))
        assert cache.evictions == 0
        assert all(cache.get("fig06", f"k{i}") is not None for i in range(10))

    def test_put_evicts_oldest_beyond_bound(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, max_entries=3)
        now = [1_000_000.0]

        def fake_time():
            now[0] += 1.0
            return now[0]

        monkeypatch.setattr(cache_mod.time, "time", fake_time)
        import os as os_mod

        real_utime = os_mod.utime

        def stamp(path, *args, **kwargs):
            # deterministic, strictly increasing mtimes regardless of clock
            return real_utime(path, times=(now[0], now[0]))

        monkeypatch.setattr(cache_mod.os, "utime", stamp)
        for i in range(5):
            cache.put("fig06", f"k{i}", _result(i=i))
            stamp(cache._paths("fig06", f"k{i}")[0])
        assert cache.evictions == 2
        assert cache.get("fig06", "k0") is None  # oldest two gone
        assert cache.get("fig06", "k1") is None
        assert all(cache.get("fig06", f"k{i}") is not None for i in (2, 3, 4))

    def test_get_touches_lru_order(self, tmp_path):
        import os as os_mod

        cache = ResultCache(tmp_path, max_entries=2)
        base = 1_000_000
        for i, key in enumerate(("old", "new")):
            cache.put("fig06", key, _result(i=i))
            os_mod.utime(cache._paths("fig06", key)[0], times=(base + i, base + i))
        # a hit on "old" must refresh it past "new"
        assert cache.get("fig06", "old") is not None
        pkl_old = cache._paths("fig06", "old")[0]
        os_mod.utime(pkl_old, times=(base + 10, base + 10))
        cache.put("fig06", "k2", _result(i=2))
        assert cache.get("fig06", "old") is not None
        assert cache.get("fig06", "new") is None  # LRU victim

    def test_just_written_entry_survives(self, tmp_path):
        import os as os_mod

        cache = ResultCache(tmp_path, max_entries=1)
        cache.put("fig06", "a", _result(i=0))
        os_mod.utime(cache._paths("fig06", "a")[0], times=(2_000_000, 2_000_000))
        # the new entry has an *older* mtime than "a"; it must still win
        cache.put("fig06", "b", _result(i=1))
        os_mod.utime(cache._paths("fig06", "b")[0], times=(1_000_000, 1_000_000))
        cache._evict_lru(keep=cache._paths("fig06", "b")[0])
        assert cache.get("fig06", "b") is not None
        assert cache.get("fig06", "a") is None

    def test_eviction_counts_across_experiments(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        cache.put("fig06", "a", _result(i=0))
        cache.put("fig07", "b", _result(i=1))
        cache.put("fig08", "c", _result(i=2))
        assert cache.evictions == 1  # the bound is global, not per-experiment

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)
