"""Candidate evaluation: map configurations onto fleet runs, with caching.

One candidate = a workload class and a configuration = one concrete
scenario (the class instantiated with the candidate's controller
parameters) = one simulation.  The evaluator batches every
cache-missing candidate of a generation, whatever classes it mixes,
into a **single** :func:`~repro.fleet.engine.run_fleet` call and reads
each candidate's metrics back from its per-group sub-aggregate, which
folds exactly one sim and is therefore independent of worker
scheduling.

Every batch runs on the :class:`~repro.fleet.engine.WorkerPool` the
evaluator is given (serially in-process without one).  A tune run hands
over one batch per generation — the paper defaults, then each step of
the global phase and of the descent, for every class at once — so the
caller holds one pool across all of them: its workers fork on the first
miss and stay warm, and a batch smaller than ``jobs × chunksize`` is
split evenly across them.

Every scored candidate is stored in the
:class:`~repro.experiments.cache.ResultCache` under a canonical,
bit-stable key (class + seed + horizon + objective + configuration +
whole-``repro``-tree code digest), so re-running the same tuning spec
replays entirely from disk: zero new simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, canonical_kwargs, package_digest
from repro.fleet.engine import WorkerPool, run_fleet
from repro.fleet.summary import FleetAggregate
from repro.tune.classes import WorkloadClass

#: experiment name tune evaluations are cached under
CACHE_EXPERIMENT = "tune-eval"


@dataclass(frozen=True)
class Objective:
    """The scalar score a candidate minimises (lower is better).

    A weighted sum of the fleet metrics that matter for a legacy
    real-time mix: the deadline-miss rate (dominant by default — a
    thousand-fold weight makes any miss-rate difference decisive), the
    mean scheduling latency and the p99 tail, both in milliseconds.
    """

    miss_weight: float = 1000.0
    latency_weight: float = 1.0
    p99_weight: float = 0.25

    def __post_init__(self) -> None:
        """All weights must be finite and non-negative."""
        for label, w in (
            ("miss_weight", self.miss_weight),
            ("latency_weight", self.latency_weight),
            ("p99_weight", self.p99_weight),
        ):
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"{label} must be finite and >= 0, got {w}")

    def score(self, agg: FleetAggregate) -> float:
        """Collapse one candidate's sub-aggregate into the scalar score."""
        lat_mean_ms = agg.lat_mean / 1e6
        p99_ms = agg.quantile(0.99) / 1e6
        return (
            self.miss_weight * agg.miss_rate
            + self.latency_weight * lat_mean_ms
            + self.p99_weight * p99_ms
        )

    def to_jsonable(self) -> dict[str, float]:
        """Stable JSON form (also feeds the cache key)."""
        return {
            "miss_weight": self.miss_weight,
            "latency_weight": self.latency_weight,
            "p99_weight": self.p99_weight,
        }


#: one candidate: a configuration to score on a workload class
Candidate = tuple[WorkloadClass, dict[str, Any]]


class Evaluator:
    """Batched, cached scorer of candidates.

    :meth:`evaluate_batch` scores one generation.  Cache misses run on
    ``pool``, or serially in-process without one.  Instances keep three
    counters the CLI reports: ``evaluations`` (candidates scored),
    ``cache_hits`` (served from disk or the in-run memo) and
    ``sims_run`` (simulations actually executed).
    """

    def __init__(
        self,
        objective: Objective,
        *,
        seed: int,
        horizon_ns: int,
        cache: ResultCache | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.objective = objective
        self.seed = seed
        self.horizon_ns = horizon_ns
        self.cache = cache
        self.pool = pool
        #: the code digest every disk key carries, read once
        self._digest = package_digest() if cache is not None else ""
        self.evaluations = 0
        self.cache_hits = 0
        self.sims_run = 0
        #: simulations run per class name; numbers the fleet groups
        self._class_sims: dict[str, int] = {}
        #: canonical (class, config) -> metrics, for repeats within one run
        self._memo: dict[str, dict[str, float]] = {}

    # -- keys ---------------------------------------------------------

    def _kwargs(self, workload_class: WorkloadClass, config: dict[str, Any]) -> dict[str, Any]:
        """The full provenance of one evaluation (the cache-key payload)."""
        return {
            "class": workload_class.name,
            "seed": self.seed,
            "horizon_ns": self.horizon_ns,
            "objective": self.objective.to_jsonable(),
            "config": dict(config),
        }

    def _disk_key(self, workload_class: WorkloadClass, config: dict[str, Any]) -> str | None:
        if self.cache is None:
            return None
        return self.cache.key(CACHE_EXPERIMENT, self._kwargs(workload_class, config), self._digest)

    # -- evaluation ---------------------------------------------------

    def evaluate_batch(self, candidates: list[Candidate]) -> list[float]:
        """Score every candidate, running only the cache misses."""
        memo_keys = [
            canonical_kwargs({"class": cls.name, "config": dict(config)})
            for cls, config in candidates
        ]
        metrics = [
            self._lookup(cls, config, memo_key)
            for (cls, config), memo_key in zip(candidates, memo_keys, strict=True)
        ]
        misses = [i for i, m in enumerate(metrics) if m is None]
        if misses:
            fresh = self._run_misses([candidates[i] for i in misses])
            for i, m in zip(misses, fresh, strict=True):
                metrics[i] = m
        self.evaluations += len(candidates)
        scores = []
        for memo_key, m in zip(memo_keys, metrics, strict=True):
            assert m is not None
            self._memo[memo_key] = m
            scores.append(m["score"])
        return scores

    def _lookup(
        self, workload_class: WorkloadClass, config: dict[str, Any], memo_key: str
    ) -> dict[str, float] | None:
        """In-run memo first, then the on-disk cache."""
        hit = self._memo.get(memo_key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        key = self._disk_key(workload_class, config)
        if key is None or self.cache is None:
            return None
        result = self.cache.get(CACHE_EXPERIMENT, key)
        if result is None or not result.rows:
            return None
        row = result.rows[0]
        self.cache_hits += 1
        return {k: float(v) for k, v in row.items() if isinstance(v, (int, float))}

    def _run_misses(self, candidates: list[Candidate]) -> list[dict[str, float]]:
        """One fleet run covering every miss; store each result on disk."""
        groups = []
        specs = []
        for cls, config in candidates:
            n = self._class_sims.get(cls.name, 0)
            self._class_sims[cls.name] = n + 1
            group = f"tune/{cls.name}/c{n:05d}"
            groups.append(group)
            specs.append(
                cls.scenario(config, group=group, seed=self.seed, horizon_ns=self.horizon_ns)
            )
        aggregate = run_fleet(specs, pool=self.pool)
        self.sims_run += len(specs)
        out: list[dict[str, float]] = []
        for group, (cls, config) in zip(groups, candidates, strict=True):
            sub = aggregate.groups[group]
            m = {
                "score": self.objective.score(sub),
                "miss_rate": sub.miss_rate,
                "lat_mean_ms": sub.lat_mean / 1e6,
                "p99_ms": sub.quantile(0.99) / 1e6,
            }
            self._store(cls, config, m)
            out.append(m)
        return out

    def _store(
        self, workload_class: WorkloadClass, config: dict[str, Any], metrics: dict[str, float]
    ) -> None:
        if self.cache is None:
            return
        key = self._disk_key(workload_class, config)
        assert key is not None
        result = ExperimentResult(
            experiment=CACHE_EXPERIMENT,
            title=f"tune evaluation: {workload_class.name}",
        )
        result.add_row(**metrics)
        self.cache.put(
            CACHE_EXPERIMENT, key, result, kwargs=self._kwargs(workload_class, config)
        )
