"""Seeded, deterministic search over the unit cube.

Two phases, as in classic auto-tuning practice:

1. a **global** phase explores the whole space — latin-hypercube or
   plain random sampling, or a dependency-free (μ/μ_w, λ) CMA-ES
   (numpy only, seeded) — and produces an incumbent;
2. a **local** phase runs per-parameter 1-D coordinate descent from the
   incumbent with a halving bracket, which both polishes the optimum
   and yields the per-parameter *sensitivity* ranking (the score range
   each axis induced while the others were pinned at the incumbent).

:func:`search` is an ask/tell generator: it yields each generation's
candidate configurations and is sent back their scores, so a caller can
score the generations of several searches in one batch.
:func:`run_search` drives one search through a caller-supplied
``evaluate_batch`` callback (one call per generation, so the evaluation
backend can batch all misses into a single fleet run).  All randomness
flows from ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``;
no wall-clock, no host state — same seed + same space ⇒ the same
candidate stream, bit for bit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any, TypeVar

import numpy as np

from repro.tune.space import ParamSpace

#: accepted global-phase methods
SEARCH_METHODS = ("lhs", "random", "cmaes")

#: fraction of the evaluation budget spent on the global phase
GLOBAL_FRACTION = 0.6

#: points per axis in one coordinate-descent sweep
DESCENT_POINTS = 3

#: initial half-width of the descent bracket (unit-cube units)
DESCENT_RADIUS = 0.25

#: type of the batched evaluation callback: configs -> scores (lower wins)
EvaluateBatch = Callable[[list[dict[str, Any]]], list[float]]

_T = TypeVar("_T")

#: an ask/tell step: yields a generation's configs, is sent their scores
#: and returns a ``_T``
Steps = Generator[list[dict[str, Any]], list[float], _T]


@dataclass
class SearchResult:
    """Everything a tuning run reports for one workload class."""

    best_config: dict[str, Any]
    best_score: float
    #: total candidate evaluations issued (including memoised repeats)
    evaluations: int
    #: [{"index", "phase", "config", "score", "best_score"}] in order
    trace: list[dict[str, Any]] = field(default_factory=list)
    #: axis name -> score range observed while sweeping only that axis
    sensitivity: dict[str, float] = field(default_factory=dict)


def sample_lhs(dim: int, n: int, rng: random.Random) -> list[list[float]]:
    """Latin-hypercube sample: ``n`` points stratified per dimension."""
    columns = []
    for _ in range(dim):
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([(k + rng.random()) / n for k in strata])
    return [[columns[d][i] for d in range(dim)] for i in range(n)]


def sample_random(dim: int, n: int, rng: random.Random) -> list[list[float]]:
    """Plain uniform sample of ``n`` unit-cube points."""
    return [[rng.random() for _ in range(dim)] for _ in range(n)]


class _Tracker:
    """Shared bookkeeping: issue batches, keep the trace and the best."""

    def __init__(self, space: ParamSpace, budget: int) -> None:
        self.space = space
        self.budget = budget
        self.evaluations = 0
        self.trace: list[dict[str, Any]] = []
        self.best_unit: list[float] | None = None
        self.best_score = math.inf

    @property
    def remaining(self) -> int:
        return self.budget - self.evaluations

    def run(self, phase: str, units: list[list[float]]) -> Steps[list[float]]:
        """Evaluate a batch of unit points (truncated to the budget): yield
        their configs once and receive the scores."""
        units = units[: max(self.remaining, 0)]
        if not units:
            return []
        configs = [self.space.config(u) for u in units]
        scores = yield configs
        for u, config, score in zip(units, configs, scores, strict=True):
            if score < self.best_score:
                self.best_score = score
                self.best_unit = list(u)
            self.trace.append(
                {
                    "index": self.evaluations,
                    "phase": phase,
                    "config": config,
                    "score": score,
                    "best_score": self.best_score,
                }
            )
            self.evaluations += 1
        return scores


def _cmaes(tracker: _Tracker, dim: int, seed: int, budget: int) -> Steps[None]:
    """Minimal (μ/μ_w, λ) CMA-ES in the clipped unit cube (numpy only)."""
    rng = np.random.default_rng(seed)
    lam = 4 + int(3 * math.log(dim)) if dim > 1 else 6
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float(np.square(weights).sum())
    cc = (4 + mu_eff / dim) / (dim + 4 + 2 * mu_eff / dim)
    cs = (mu_eff + 2) / (dim + mu_eff + 5)
    c1 = 2 / ((dim + 1.3) ** 2 + mu_eff)
    cmu = min(1 - c1, 2 * (mu_eff - 2 + 1 / mu_eff) / ((dim + 2) ** 2 + mu_eff))
    damps = 1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (dim + 1)) - 1) + cs
    chi_n = math.sqrt(dim) * (1 - 1 / (4 * dim) + 1 / (21 * dim * dim))

    mean = np.full(dim, 0.5)
    sigma = 0.25
    cov = np.eye(dim)
    p_sigma = np.zeros(dim)
    p_c = np.zeros(dim)
    spent = 0
    while spent < budget and tracker.remaining > 0:
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        scale = eigvecs @ np.diag(np.sqrt(eigvals))
        inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
        z = rng.standard_normal((lam, dim))
        xs = np.clip(mean + sigma * (z @ scale.T), 0.0, 1.0)
        scores = yield from tracker.run("cmaes", [list(map(float, x)) for x in xs])
        if not scores:
            return
        spent += len(scores)
        order = np.argsort(np.asarray(scores), kind="stable")[:mu]
        selected = xs[order]
        old_mean = mean
        mean = weights @ selected
        step = (mean - old_mean) / sigma
        p_sigma = (1 - cs) * p_sigma + math.sqrt(cs * (2 - cs) * mu_eff) * (inv_sqrt @ step)
        ps_norm = float(np.linalg.norm(p_sigma))
        h_sigma = 1.0 if ps_norm / math.sqrt(1 - (1 - cs) ** (2 * (spent // lam + 1))) < (
            1.4 + 2 / (dim + 1)
        ) * chi_n else 0.0
        p_c = (1 - cc) * p_c + h_sigma * math.sqrt(cc * (2 - cc) * mu_eff) * step
        deltas = (selected - old_mean) / sigma
        rank_mu = (weights[:, None, None] * (deltas[:, :, None] @ deltas[:, None, :])).sum(axis=0)
        cov = (
            (1 - c1 - cmu) * cov
            + c1 * (np.outer(p_c, p_c) + (1 - h_sigma) * cc * (2 - cc) * cov)
            + cmu * rank_mu
        )
        cov = (cov + cov.T) / 2.0
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1))
        sigma = min(max(sigma, 1e-8), 1.0)


def _descend(tracker: _Tracker, seed: int) -> Steps[dict[str, float]]:
    """Per-parameter 1-D coordinate descent from the incumbent.

    Sweeps each axis in turn over a bracket centred on the incumbent,
    halving the bracket every full pass; moves the incumbent whenever a
    sweep improves it.  Returns the sensitivity map (per-axis score
    range across its sweeps, incumbent point included).
    """
    space = tracker.space
    sensitivity = {name: 0.0 for name in space.names}
    if tracker.best_unit is None or tracker.remaining <= 0:
        return sensitivity
    lo_seen = {name: tracker.best_score for name in space.names}
    hi_seen = {name: tracker.best_score for name in space.names}
    radius = DESCENT_RADIUS
    while tracker.remaining > 0 and radius > 1e-3:
        for axis, name in enumerate(space.names):
            if tracker.remaining <= 0:
                break
            centre = tracker.best_unit[axis]
            offsets = [
                centre + radius * (2.0 * k / (DESCENT_POINTS - 1) - 1.0)
                for k in range(DESCENT_POINTS)
            ]
            units = []
            for u in offsets:
                point = list(tracker.best_unit)
                point[axis] = min(max(u, 0.0), 1.0)
                units.append(point)
            scores = yield from tracker.run("descent", units)
            for score in scores:
                lo_seen[name] = min(lo_seen[name], score)
                hi_seen[name] = max(hi_seen[name], score)
            sensitivity[name] = hi_seen[name] - lo_seen[name]
        radius /= 2.0
    return sensitivity


def search(
    space: ParamSpace,
    *,
    budget: int,
    seed: int,
    method: str = "lhs",
    initial: dict[str, Any] | None = None,
) -> Steps[SearchResult]:
    """Global phase + local descent, as an ask/tell generator.

    Yields each generation's configurations, expects their scores back
    through ``send`` and returns the :class:`SearchResult`; deterministic
    in ``seed``.  ``budget`` bounds the number of candidate evaluations;
    ``method`` selects the global phase (one of :data:`SEARCH_METHODS`).
    Scores are minimised.  ``initial`` warm-starts the search with a
    known configuration (the paper defaults) so the reported best can
    never be worse than it.
    """
    if method not in SEARCH_METHODS:
        raise ValueError(f"method must be one of {list(SEARCH_METHODS)}, got {method!r}")
    if budget < 2:
        raise ValueError(f"budget must be >= 2, got {budget}")
    tracker = _Tracker(space, budget)
    if initial is not None:
        yield from tracker.run("initial", [space.unit(initial)])
    # leave the local phase at least one full pass over every axis
    full_pass = space.dim * DESCENT_POINTS
    global_budget = max(1, min(int(budget * GLOBAL_FRACTION), tracker.remaining - full_pass))
    if method == "cmaes":
        yield from _cmaes(tracker, space.dim, seed, global_budget)
    else:
        rng = random.Random(seed)
        sampler = sample_lhs if method == "lhs" else sample_random
        units = sampler(space.dim, global_budget, rng)
        yield from tracker.run(method, units)
    sensitivity = yield from _descend(tracker, seed)
    assert tracker.best_unit is not None
    return SearchResult(
        best_config=space.config(tracker.best_unit),
        best_score=tracker.best_score,
        evaluations=tracker.evaluations,
        trace=tracker.trace,
        sensitivity=sensitivity,
    )


def run_search(
    space: ParamSpace,
    evaluate_batch: EvaluateBatch,
    *,
    budget: int,
    seed: int,
    method: str = "lhs",
    initial: dict[str, Any] | None = None,
) -> SearchResult:
    """Run :func:`search` to the end, scoring each generation with one
    ``evaluate_batch`` call."""
    steps = search(space, budget=budget, seed=seed, method=method, initial=initial)
    try:
        configs = next(steps)
        while True:
            configs = steps.send(evaluate_batch(configs))
    except StopIteration as done:
        return done.value
