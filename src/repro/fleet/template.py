"""Parameterised fleet templates → lazy streams of concrete scenarios.

A template is a scenario document plus three extra tables:

- ``[template]`` — fleet shape: ``name``, ``nodes`` (scenarios per grid
  combination) and the master ``seed``;
- ``[grid]`` — value grids addressed by dotted paths (quoted TOML keys),
  e.g. ``"scheduler.policy" = ["hard", "soft"]`` or
  ``"workload.mp3.count" = [100, 150]``; the cross product of all grids,
  in file order, enumerates the combinations;
- ``[jitter]`` — per-node perturbations: each path gets a uniform draw
  in ``[0, amount)`` *added* to its base value, from a
  :class:`random.Random` seeded per node, so every node in a combination
  is slightly different yet the whole fleet is a pure function of the
  template seed.

:func:`expand_template` yields :class:`~repro.fleet.spec.ScenarioSpec`
objects lazily — a million-node fleet costs one node of memory at a
time.  Scenario ``i`` of combination ``c`` is named
``{name}/g{c:04d}/n{i:05d}``, carries ``group = "g{c:04d}"`` and seed
``template.seed + c * nodes + i``, so expansion is deterministic and
order-independent of the host.
"""

from __future__ import annotations

import copy
import itertools
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fleet.spec import (
    ScenarioSpec,
    SpecError,
    _reject_unknown,
    _workload_tables,
    load_toml,
    scenario_from_dict,
)

_TEMPLATE_TOP_KEYS = (
    "template",
    "scenario",
    "scheduler",
    "workload",
    "fault",
    "controller",
    "grid",
    "jitter",
)


@dataclass
class FleetTemplate:
    """A parsed template: the base document plus grid/jitter tables."""

    name: str
    nodes: int
    seed: int
    #: the scenario document the grid and jitter perturb
    base: dict[str, Any]
    #: dotted path -> list of values (cross product, file order)
    grid: dict[str, list[Any]]
    #: dotted path -> uniform jitter amount added per node
    jitter: dict[str, float]

    @property
    def combos(self) -> int:
        """Number of grid combinations (1 when the grid is empty)."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    @property
    def size(self) -> int:
        """Total number of scenarios the template expands to."""
        return self.combos * self.nodes


def parse_template(text: str) -> FleetTemplate:
    """Parse template TOML into a :class:`FleetTemplate` (strict keys)."""
    doc = load_toml(text)
    _reject_unknown(doc, _TEMPLATE_TOP_KEYS, "template document")
    _workload_tables(doc, "template document")
    meta = doc.get("template", {})
    if not isinstance(meta, dict):
        raise SpecError("template document: [template] must be a table")
    _reject_unknown(meta, ("name", "nodes", "seed"), "template")
    name = str(meta.get("name", ""))
    if not name:
        raise SpecError("template: 'name' must be a non-empty string")
    nodes = meta.get("nodes", 1)
    if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1:
        raise SpecError(f"template: 'nodes' must be an integer >= 1, got {nodes!r}")
    seed = meta.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecError(f"template: 'seed' must be an integer, got {seed!r}")

    grid_raw = doc.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise SpecError("template document: [grid] must be a table")
    grid: dict[str, list[Any]] = {}
    for path, values in grid_raw.items():
        if not isinstance(values, list) or not values:
            raise SpecError(f"grid: {path!r} must map to a non-empty array of values")
        grid[path] = values

    jitter_raw = doc.get("jitter", {})
    if not isinstance(jitter_raw, dict):
        raise SpecError("template document: [jitter] must be a table")
    jitter: dict[str, float] = {}
    for path, amount in jitter_raw.items():
        number = isinstance(amount, (int, float)) and not isinstance(amount, bool)
        if not number or not 0 < amount <= sys.float_info.max:
            raise SpecError(
                f"jitter: {path!r} must map to a positive finite number, got {amount!r}"
            )
        jitter[path] = float(amount)

    base_keys = ("scenario", "scheduler", "workload", "fault", "controller")
    base = {k: copy.deepcopy(v) for k, v in doc.items() if k in base_keys}
    # fail fast on unresolvable grid/jitter paths (full spec validation
    # happens per expanded scenario, once grid values are applied)
    for path in itertools.chain(grid, jitter):
        _resolve_tables(base, path)
    return FleetTemplate(name=name, nodes=nodes, seed=seed, base=base, grid=grid, jitter=jitter)


def load_template(path: str | Path) -> FleetTemplate:
    """Load a fleet template from a ``.toml`` file."""
    return parse_template(Path(path).read_text())


def _resolve_tables(doc: dict[str, Any], path: str) -> list[tuple[dict[str, Any], str]]:
    """Resolve a dotted path to ``(table, final_key)`` targets.

    ``workload.<name>.<field>`` addresses the ``[[workload]]`` entry with
    that name (``*`` addresses every entry); ``scenario.<field>``,
    ``scheduler.<field>`` and ``fault.<field>`` address those tables.
    """
    parts = path.split(".")
    head = parts[0]
    if head == "workload":
        if len(parts) != 3:
            raise SpecError(
                f"path {path!r}: workload paths take the form 'workload.<name>.<field>'"
            )
        entries = doc.get("workload", [])
        wanted, fld = parts[1], parts[2]
        matches = [w for w in entries if wanted in ("*", w.get("name"))]
        if not matches:
            known = sorted(str(w.get("name")) for w in entries)
            raise SpecError(f"path {path!r}: no workload named {wanted!r}; known: {known}")
        return [(w, fld) for w in matches]
    if head in ("scenario", "scheduler", "fault", "controller"):
        if len(parts) != 2:
            raise SpecError(f"path {path!r}: expected '{head}.<field>'")
        table = doc.setdefault(head, {})
        if not isinstance(table, dict):
            raise SpecError(f"path {path!r}: [{head}] must be a table, got {table!r}")
        return [(table, parts[1])]
    raise SpecError(
        f"path {path!r}: must start with 'scenario', 'scheduler', 'fault', "
        "'controller' or 'workload'"
    )


def _apply(doc: dict[str, Any], path: str, value: Any) -> None:
    """Set ``path`` to ``value`` in a (deep-copied) base document."""
    for table, key in _resolve_tables(doc, path):
        table[key] = value


def _apply_jitter(doc: dict[str, Any], path: str, amount: float, rng: random.Random) -> None:
    """Add a uniform ``[0, amount)`` draw to the value(s) at ``path``."""
    for table, key in _resolve_tables(doc, path):
        base = table.get(key, 0)
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            raise SpecError(f"jitter: {path!r} addresses non-numeric value {base!r}")
        table[key] = base + rng.random() * amount


def expand_template(template: FleetTemplate) -> Iterator[ScenarioSpec]:
    """Lazily yield every concrete scenario of ``template``.

    Iteration order is the grid cross product in file order, then node
    index — the canonical fleet order every aggregate folds in.
    """
    grid_paths = list(template.grid)
    jitter_paths = sorted(template.jitter)
    value_lists = [template.grid[p] for p in grid_paths]
    for combo_idx, combo in enumerate(itertools.product(*value_lists)):
        group = f"g{combo_idx:04d}"
        for node in range(template.nodes):
            doc = copy.deepcopy(template.base)
            for path, value in zip(grid_paths, combo, strict=True):
                _apply(doc, path, value)
            seed = template.seed + combo_idx * template.nodes + node
            rng = random.Random(seed)
            for path in jitter_paths:
                _apply_jitter(doc, path, template.jitter[path], rng)
            doc.setdefault("scenario", {})["seed"] = seed
            doc["scenario"]["name"] = f"{template.name}/{group}/n{node:05d}"
            spec = scenario_from_dict(doc)
            yield ScenarioSpec(
                name=spec.name,
                seed=spec.seed,
                horizon_ns=spec.horizon_ns,
                miss_threshold_ns=spec.miss_threshold_ns,
                scheduler=spec.scheduler,
                workloads=spec.workloads,
                fault=spec.fault,
                controller=spec.controller,
                group=group,
            )
