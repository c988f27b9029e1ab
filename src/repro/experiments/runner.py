"""Process-pool fan-out layer over the experiment :data:`REGISTRY`.

Two levels of parallelism, both on the one
:class:`~repro.fleet.engine.WorkerPool` and both with results
bit-identical to a serial run:

**Registry sharding** (:func:`run_many`) — independent experiments are
mapped over the pool; each one runs serially inside its worker.  This is
what ``repro-exp all --jobs N`` and ``repro-exp bench --jobs N`` use.

**Repetition sharding** (:func:`run_experiment`) — the expensive sweeps
(fig06/fig07/fig10/fig12/tab03, events-vs-periodic, robustness) expose a
``map_fn`` keyword: their per-repetition inner loops are written against
the builtin ``map`` protocol, and the runner passes the pool's
order-preserving :meth:`~repro.fleet.engine.WorkerPool.map` (the builtin
``map`` itself at ``jobs=1``).  Every work unit derives its seed
deterministically from the unit *index* (``seed0 + r``), never from
worker identity or execution order, so ``--jobs 1`` and ``--jobs 8``
produce the same :class:`~repro.experiments.base.ExperimentResult` —
only wall-clock timing columns may differ, exactly as they differ
between two serial runs.  fig06/fig07 (``transform_ms``), fig08
(``detect_us``) and the detector ablation (``spectrum_ms``,
``interval_ms``) declare theirs in a module-level ``TIMING_COLUMNS``.

Both paths consult an optional on-disk :class:`~repro.experiments.cache.
ResultCache`; cached entries are keyed on name + canonicalised kwargs +
code digest, so parallel and serial invocations share hits, and a run
served from the cache starts no pool.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache
from repro.fleet.engine import WorkerPool


@dataclass
class RunOutcome:
    """One experiment execution: the result plus how it was obtained."""

    name: str
    result: ExperimentResult
    elapsed_s: float
    cached: bool = False
    jobs: int = 1
    key: str | None = None


def _supports_map_fn(run_fn) -> bool:
    try:
        return "map_fn" in inspect.signature(run_fn).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False


def _resolve(name: str):
    from repro.experiments import REGISTRY

    entry = REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown experiment {name!r}")
    return entry


def run_experiment(
    name: str,
    overrides: dict | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> RunOutcome:
    """Run one experiment, sharding its inner loops over ``jobs`` workers.

    ``overrides`` are the user-facing ``run()`` kwargs and are the only
    thing that enters the cache key — ``jobs`` never does, because it
    cannot change the result.  Experiments without a ``map_fn`` hook run
    serially whatever ``jobs`` is.
    """
    entry = _resolve(name)
    overrides = dict(overrides or {})

    key = None
    if cache is not None:
        key = cache.key_for(name, overrides)
        hit = cache.get(name, key)
        if hit is not None:
            return RunOutcome(
                name=name, result=hit, elapsed_s=0.0, cached=True, jobs=jobs, key=key
            )

    start = time.perf_counter()
    with WorkerPool(jobs) as pool:
        hook = {"map_fn": pool.map} if _supports_map_fn(entry.run) else {}
        result = entry.run(**overrides, **hook)
    elapsed = time.perf_counter() - start

    if cache is not None and key is not None:
        cache.put(name, key, result, kwargs=overrides, elapsed_s=elapsed)
    return RunOutcome(name=name, result=result, elapsed_s=elapsed, jobs=jobs, key=key)


def _run_entry(run_fn, overrides: dict) -> tuple[ExperimentResult, float]:
    """Worker-side body for :func:`run_many`.

    Receives the experiment's ``run`` callable directly (module-level
    functions pickle by reference) rather than re-resolving the name from
    ``REGISTRY`` in the worker: under the ``spawn``/``forkserver`` start
    methods a fresh interpreter only sees statically registered entries,
    so dynamically registered ones would vanish.  Shipping the callable
    works under every start method.
    """
    start = time.perf_counter()
    result = run_fn(**overrides)
    return result, time.perf_counter() - start


def run_many(
    names: list[str],
    overrides_map: dict[str, dict] | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[RunOutcome]:
    """Shard a list of experiments across ``jobs`` workers.

    Results come back in the order of ``names`` regardless of which
    worker finished first.  Cache lookups happen up front in the parent
    process, so only the misses reach the pool — and each miss is
    shipped as its *run callable*, never as a registry name, so any
    multiprocessing start method works even for dynamically registered
    experiments.
    """
    overrides_map = overrides_map or {}
    overrides_of = {name: dict(overrides_map.get(name, {})) for name in names}
    entries = {name: _resolve(name) for name in names}  # fail fast on unknown names

    outcomes: dict[str, RunOutcome] = {}
    pending: list[str] = []
    keys: dict[str, str] = {}
    for name in names:
        if cache is not None:
            key = cache.key_for(name, overrides_of[name])
            keys[name] = key
            hit = cache.get(name, key)
            if hit is not None:
                outcomes[name] = RunOutcome(
                    name=name, result=hit, elapsed_s=0.0, cached=True, jobs=jobs, key=key
                )
                continue
        pending.append(name)

    with WorkerPool(jobs) as pool:
        computed = pool.map(
            _run_entry,
            [entries[name].run for name in pending],
            [overrides_of[name] for name in pending],
        )
        for name, (result, elapsed) in zip(pending, computed, strict=True):
            key = keys.get(name)
            if cache is not None and key is not None:
                cache.put(name, key, result, kwargs=overrides_of[name], elapsed_s=elapsed)
            outcomes[name] = RunOutcome(
                name=name, result=result, elapsed_s=elapsed, jobs=jobs, key=key
            )

    return [outcomes[name] for name in names]
