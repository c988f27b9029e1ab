"""Orchestration: a TOML tune spec in, a ``TUNE_*.json`` report out.

A tune spec declares what to search (``[[param]]`` axes, default: the
knob-derived space), what to optimise (``[objective]`` weights), and
where (``classes`` from the catalogue)::

    [tune]
    name = "controller-demo"
    seed = 7
    budget = 24
    method = "lhs"          # or "random" / "cmaes"
    classes = ["audio-burst"]
    horizon_ms = 4000.0

    [objective]
    miss_weight = 1000.0

    [[param]]
    knob = "spread"

    [[param]]
    knob = "quantile"

:func:`run_tune` tunes every class independently — global search, then
per-parameter descent — and also scores the paper-default configuration
so the report can state the improvement.  All candidate evaluations are
deduplicated through the experiment cache; a warm rerun executes zero
simulations.  One :class:`~repro.fleet.engine.WorkerPool` serves every
evaluation of a run: it forks on the first cache miss (so a warm rerun
forks nothing) and is shut down when the run returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.cache import ResultCache
from repro.fleet.engine import WorkerPool
from repro.fleet.spec import SpecError, _int_field, _ms_to_ns, _reject_unknown, load_toml
from repro.sim.time import MS
from repro.tune.classes import WORKLOAD_CLASSES
from repro.tune.evaluate import Evaluator, Objective
from repro.tune.report import class_payload, tune_payload
from repro.tune.search import SEARCH_METHODS, run_search
from repro.tune.space import ParamSpace, default_config, default_space, space_from_tables

_TUNE_KEYS = ("name", "seed", "budget", "method", "classes", "horizon_ms")
_OBJECTIVE_KEYS = ("miss_weight", "latency_weight", "p99_weight")
_TOP_KEYS = ("tune", "objective", "param")


@dataclass(frozen=True)
class TuneSpec:
    """One fully parsed tuning run."""

    name: str
    seed: int = 0
    #: candidate evaluations per workload class
    budget: int = 24
    method: str = "lhs"
    classes: tuple[str, ...] = ("audio-burst",)
    #: per-candidate simulation horizon; must span many controller
    #: sampling periods or every candidate scores its startup transient
    horizon_ns: int = 4000 * MS
    space: ParamSpace = field(default_factory=default_space)
    objective: Objective = field(default_factory=Objective)

    def __post_init__(self) -> None:
        """Validate everything a typo could corrupt silently."""
        if not self.name:
            raise SpecError("tune: 'name' must be a non-empty string")
        if self.budget < 2:
            raise SpecError(f"tune: 'budget' must be >= 2, got {self.budget}")
        if self.method not in SEARCH_METHODS:
            raise SpecError(
                f"tune: unknown method {self.method!r}; accepted methods are "
                f"{list(SEARCH_METHODS)}"
            )
        if not self.classes:
            raise SpecError("tune: 'classes' must name at least one workload class")
        for key in self.classes:
            if key not in WORKLOAD_CLASSES:
                raise SpecError(
                    f"tune: unknown workload class {key!r}; catalogue: "
                    f"{sorted(WORKLOAD_CLASSES)}"
                )
        if self.horizon_ns <= 0:
            raise SpecError(f"tune: 'horizon_ms' must be > 0, got {self.horizon_ns} ns")


def tune_spec_from_toml(text: str) -> TuneSpec:
    """Parse a tune spec document (strict keys throughout)."""
    doc = load_toml(text)
    _reject_unknown(doc, _TOP_KEYS, "tune document")
    meta = doc.get("tune", {})
    if not isinstance(meta, dict):
        raise SpecError("tune document: [tune] must be a table")
    _reject_unknown(meta, _TUNE_KEYS, "tune")
    classes_raw = meta.get("classes", ["audio-burst"])
    if not isinstance(classes_raw, list) or not all(isinstance(c, str) for c in classes_raw):
        raise SpecError(f"tune: 'classes' must be an array of strings, got {classes_raw!r}")

    objective_raw = doc.get("objective", {})
    if not isinstance(objective_raw, dict):
        raise SpecError("tune document: [objective] must be a table")
    _reject_unknown(objective_raw, _OBJECTIVE_KEYS, "objective")
    weights = {}
    for key in _OBJECTIVE_KEYS:
        if key in objective_raw:
            value = objective_raw[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"objective: {key!r} must be a number, got {value!r}")
            weights[key] = float(value)
    try:
        objective = Objective(**weights)
    except ValueError as exc:
        raise SpecError(f"objective: {exc}") from None

    params_raw = doc.get("param", [])
    if not isinstance(params_raw, list):
        raise SpecError("tune document: [[param]] must be an array of tables")
    space = space_from_tables(params_raw) if params_raw else default_space()

    return TuneSpec(
        name=str(meta.get("name", "")),
        seed=_int_field(meta, "seed", 0, "tune"),
        budget=_int_field(meta, "budget", 24, "tune"),
        method=str(meta.get("method", "lhs")),
        classes=tuple(classes_raw),
        horizon_ns=_ms_to_ns(meta.get("horizon_ms", 4000.0), "horizon_ms", "tune"),
        space=space,
        objective=objective,
    )


def load_tune_spec(path: str | Path) -> TuneSpec:
    """Load a tune spec from a ``.toml`` file."""
    return tune_spec_from_toml(Path(path).read_text())


@dataclass
class TuneReport:
    """The report payload plus the run statistics the CLI prints.

    Only ``payload`` lands in the JSON artefact; the counters are
    run-dependent (a warm cache changes them) and stay on stdout.
    """

    payload: dict[str, Any]
    evaluations: int = 0
    cache_hits: int = 0
    sims_run: int = 0


def run_tune(
    spec: TuneSpec, *, jobs: int = 1, cache: ResultCache | None = None
) -> TuneReport:
    """Tune every workload class of ``spec``; deterministic in its seed."""
    base_config = default_config(spec.space)
    classes: dict[str, dict[str, Any]] = {}
    evaluations = cache_hits = sims_run = 0
    with WorkerPool(jobs) as pool:
        for offset, key in enumerate(spec.classes):
            evaluator = Evaluator(
                WORKLOAD_CLASSES[key],
                spec.objective,
                seed=spec.seed,
                horizon_ns=spec.horizon_ns,
                cache=cache,
                pool=pool,
            )
            default_score = evaluator.evaluate_batch([dict(base_config)])[0]
            result = run_search(
                spec.space,
                evaluator.evaluate_batch,
                budget=spec.budget,
                seed=spec.seed + offset,
                method=spec.method,
                initial=dict(base_config),
            )
            classes[key] = class_payload(
                result, default_config=base_config, default_score=default_score
            )
            evaluations += evaluator.evaluations
            cache_hits += evaluator.cache_hits
            sims_run += evaluator.sims_run
    payload = tune_payload(
        name=spec.name,
        seed=spec.seed,
        budget=spec.budget,
        method=spec.method,
        space=spec.space,
        objective=spec.objective,
        horizon_ns=spec.horizon_ns,
        classes=classes,
    )
    return TuneReport(
        payload=payload,
        evaluations=evaluations,
        cache_hits=cache_hits,
        sims_run=sims_run,
    )
