"""Known bugs the lint must keep catching.

Each entry re-injects one defect into an in-memory copy of a real
``src/repro`` file and asserts that the named rule flags it in that
file.  The entries are the lint's true positives from the project's
history plus one representative hazard per cross-file rule.  Facts for
the whole tree are extracted once; an entry swaps in the patched file's
facts and rebuilds the project context, so the interprocedural rules see
the bug exactly as a full ``repro-exp lint`` run would.  Fast-forward
surface defects are caught by ``tests/sched/test_cycle_surface.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.lint.callgraph import ModuleFacts, extract_module_facts
from repro.analysis.lint.context import ProjectContext, build_context_from_facts
from repro.analysis.lint.engine import lint_sources

PKG_ROOT = Path(next(iter(repro.__path__)))

#: ``_rep_unit`` is the pool worker the robustness sweep ships to ``map_fn``.
REP_UNIT = '''def _rep_unit(args: tuple) -> dict:
    """Picklable work unit for process-pool ``map_fn`` sharding."""
'''

CORPUS = [
    pytest.param(
        "sched/cbs.py",
        "for pid in sorted(server.members):",
        "for pid in server.members:",
        "DT005",
        id="cbs-destroy-server-iterates-a-set",
    ),
    pytest.param(
        "faults/base.py",
        "self._obs_window_span = obs.fault_window_begin(",
        "self._window_span = obs.fault_window_begin(",
        "OB001",
        id="fault-telemetry-guard-writes-sim-state",
    ),
    pytest.param(
        "core/lfspp.py",
        'validate_knob("spread", self.spread)',
        'validate_knob("spred", self.spread)',
        "KN001",
        id="lfspp-misspelt-knob",
    ),
    pytest.param(
        "experiments/robustness.py",
        REP_UNIT,
        "import random\n_RNG = random.Random(0)\n\n\n" + REP_UNIT + "    _RNG.random()\n",
        "CC002",
        id="robustness-worker-shares-an-rng",
    ),
    pytest.param(
        "experiments/robustness.py",
        REP_UNIT,
        "_SEEN = {}\n\n\n" + REP_UNIT + "    _SEEN[args] = 1\n",
        "CC001",
        id="robustness-worker-writes-a-global",
    ),
    pytest.param(
        "workloads/periodic.py",
        "yield Compute(cost)",
        "Compute(cost)",
        "SC001",
        id="periodic-compute-not-yielded",
    ),
    pytest.param(
        "sim/kernel.py",
        "segment.remaining = instr.duration\n",
        "segment.remaining = instr.duration / 2\n",
        "DT003",
        id="kernel-refill-stores-a-float",
    ),
]


def _key(rel: str) -> str:
    return f"repro/{rel}"


@pytest.fixture(scope="module")
def tree() -> tuple[dict[str, ModuleFacts], ProjectContext]:
    """Per-module facts of the real tree, and the context they build."""
    facts = {}
    for file in sorted(PKG_ROOT.rglob("*.py")):
        key = _key(file.relative_to(PKG_ROOT).as_posix())
        facts[key] = extract_module_facts(key, ast.parse(file.read_text(encoding="utf-8")))
    return facts, build_context_from_facts(list(facts.values()))


def _hits(report, rule: str, path: str) -> list:
    return [d for d in report.diagnostics if d.rule == rule and d.path == path and not d.waived]


@pytest.mark.parametrize(("rel", "old", "new", "rule"), CORPUS)
def test_reinjected_bug_is_caught(tree, rel, old, new, rule):
    facts, clean_ctx = tree
    path = _key(rel)
    source = (PKG_ROOT / rel).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{rel} no longer holds {old!r} once; re-anchor the entry"
    # the real file is clean, so a hit below is the injected bug's
    assert not _hits(lint_sources({path: source}, ctx=clean_ctx), rule, path)

    patched = source.replace(old, new)
    patched_facts = {**facts, path: extract_module_facts(path, ast.parse(patched))}
    ctx = build_context_from_facts(list(patched_facts.values()))
    report = lint_sources({path: patched}, ctx=ctx)
    assert _hits(report, rule, path), f"{rule} missed the bug in {rel}:\n{report.render()}"
