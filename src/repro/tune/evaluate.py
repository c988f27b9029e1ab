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
replays entirely from disk: zero new simulations.  A candidate is
encoded once: the JSON text of its class and configuration is its
in-run memo key, and its disk key hashes the run's seed, horizon and
objective, encoded once per run, followed by that text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, canonical_kwargs, hashed_key, package_digest
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
        #: the run-wide part of every disk key text, encoded once
        self._scope = canonical_kwargs(
            {"seed": seed, "horizon_ns": horizon_ns, "objective": objective.to_jsonable()}
        )
        self.evaluations = 0
        self.cache_hits = 0
        self.sims_run = 0
        #: simulations run per class name; numbers the fleet groups
        self._class_sims: dict[str, int] = {}
        #: candidate text -> metrics, for repeats within one run
        self._memo: dict[str, dict[str, float]] = {}

    # -- keys ---------------------------------------------------------

    def _kwargs(self, workload_class: WorkloadClass, config: dict[str, Any]) -> dict[str, Any]:
        """The full provenance of one evaluation, recorded in the cache sidecar."""
        return {
            "class": workload_class.name,
            "seed": self.seed,
            "horizon_ns": self.horizon_ns,
            "objective": self.objective.to_jsonable(),
            "config": dict(config),
        }

    def _disk_key(self, workload_class: WorkloadClass, config: dict[str, Any]) -> str:
        return self._text_key(_candidate_text(workload_class, config))

    def _text_key(self, text: str) -> str:
        """The disk key of a candidate text: run scope and candidate, hashed once."""
        return hashed_key(CACHE_EXPERIMENT, self._scope + text, self._digest)

    # -- evaluation ---------------------------------------------------

    def evaluate_batch(self, candidates: list[Candidate]) -> list[float]:
        """Score every candidate, running only the cache misses."""
        texts = [_candidate_text(cls, config) for cls, config in candidates]
        metrics = [self._lookup(text) for text in texts]
        misses = [i for i, m in enumerate(metrics) if m is None]
        if misses:
            fresh = self._run_misses([(*candidates[i], texts[i]) for i in misses])
            for i, m in zip(misses, fresh, strict=True):
                metrics[i] = m
        self.evaluations += len(candidates)
        scores = []
        for text, m in zip(texts, metrics, strict=True):
            assert m is not None
            self._memo[text] = m
            scores.append(m["score"])
        return scores

    def _lookup(self, text: str) -> dict[str, float] | None:
        """In-run memo first, then the on-disk cache."""
        hit = self._memo.get(text)
        if hit is None and self.cache is not None:
            result = self.cache.get(CACHE_EXPERIMENT, self._text_key(text))
            if result is not None and result.rows:
                row = result.rows[0]
                hit = {k: float(v) for k, v in row.items() if isinstance(v, (int, float))}
        if hit is not None:
            self.cache_hits += 1
        return hit

    def _run_misses(
        self, misses: list[tuple[WorkloadClass, dict[str, Any], str]]
    ) -> list[dict[str, float]]:
        """One fleet run covering every miss; store each result on disk."""
        groups = []
        specs = []
        for cls, config, _ in misses:
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
        for group, (cls, config, text) in zip(groups, misses, strict=True):
            sub = aggregate.groups[group]
            m = {
                "score": self.objective.score(sub),
                "miss_rate": sub.miss_rate,
                "lat_mean_ms": sub.lat_mean / 1e6,
                "p99_ms": sub.quantile(0.99) / 1e6,
            }
            self._store(cls, config, text, m)
            out.append(m)
        return out

    def _store(
        self, cls: WorkloadClass, config: dict[str, Any], text: str, metrics: dict[str, float]
    ) -> None:
        if self.cache is None:
            return
        result = ExperimentResult(experiment=CACHE_EXPERIMENT, title=f"tune evaluation: {cls.name}")
        result.add_row(**metrics)
        self.cache.put(
            CACHE_EXPERIMENT, self._text_key(text), result, kwargs=self._kwargs(cls, config)
        )


def _candidate_text(workload_class: WorkloadClass, config: dict[str, Any]) -> str:
    """A candidate's one key text: its in-run memo key and the tail of its disk key."""
    return canonical_kwargs({"class": workload_class.name, "config": config})
