"""The repro source tree must lint clean under its own linter."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.lint.engine import LintReport, lint_paths

PKG_ROOT = Path(next(iter(repro.__path__)))
BUDGET_FILE = Path(__file__).resolve().parents[3] / "scripts" / "waiver_budget.json"


@pytest.fixture(scope="module")
def report() -> LintReport:
    """One lint run over the whole tree, shared by every test below."""
    return lint_paths([PKG_ROOT])


def test_src_repro_lints_clean(report):
    rendered = "\n".join(d.render() for d in report.errors + report.warnings)
    assert not report.errors, f"lint errors in src/repro:\n{rendered}"
    assert not report.warnings, f"lint warnings in src/repro:\n{rendered}"


def test_all_waivers_carry_reasons(report):
    reasonless = [w for w in report.waivers if not w.reason]
    assert not reasonless, f"reason-less waivers: {reasonless}"


def test_waiver_census_matches_pinned_budget(report):
    # Every waiver in the tree is pinned per rule and per file in
    # scripts/waiver_budget.json; adding, removing or moving one means
    # consciously updating the budget in the same change (the failure
    # message prints the actual census to paste in).
    census: dict[str, dict[str, int]] = {}
    for waiver in report.waivers:
        # lint_paths keys are cwd-relative; normalise to repo-relative
        # (src/repro/...) to match the budget file's keys
        path = waiver.path
        marker = path.find("src/repro/")
        if marker > 0:
            path = path[marker:]
        for rule in waiver.rules:
            per_file = census.setdefault(rule, {})
            per_file[path] = per_file.get(path, 0) + 1
    budget = json.loads(BUDGET_FILE.read_text(encoding="utf-8"))["rules"]
    assert census == budget, (
        f"waiver census drifted from scripts/waiver_budget.json\n"
        f"  actual: {json.dumps(census, indent=2, sort_keys=True)}\n"
        f"  pinned: {json.dumps(budget, indent=2, sort_keys=True)}"
    )
