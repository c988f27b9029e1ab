"""Engine-level tests: scoping, report schema, discovery, exit policy."""

from __future__ import annotations

import pytest

from repro.analysis.lint.diagnostics import Severity
from repro.analysis.lint.engine import (
    DEFAULT_SCOPE,
    discover_files,
    lint_source,
    lint_sources,
)
from repro.analysis.lint.rules import RULES, select_rules

DIRTY = "import time\nt0 = time.time()\n"


def test_scoped_rule_silent_outside_its_dirs():
    assert lint_source(DIRTY, path="repro/experiments/sweep.py") == []
    diags = lint_source(DIRTY, path="repro/sim/engine.py")
    assert [d.rule for d in diags] == ["DT001"]


def test_every_scoped_rule_id_is_registered():
    assert set(DEFAULT_SCOPE) <= set(RULES)


def test_select_rules_by_id_and_pack():
    assert [r.id for r in select_rules(["DT001"])] == ["DT001"]
    packs = [r.id for r in select_rules(["SC"])]
    assert packs == ["SC001", "SC002", "SC003"]
    with pytest.raises(ValueError):
        select_rules(["ZZ999"])


def test_report_json_schema():
    report = lint_sources({"repro/sim/x.py": DIRTY})
    doc = report.to_json()
    assert doc["version"] == 3
    assert doc["tool"] == "repro.analysis.lint"
    assert doc["files"] == 1
    assert doc["summary"] == {"errors": 1, "warnings": 0, "waived": 0, "files": 1}
    (diag,) = doc["diagnostics"]
    assert diag["rule"] == "DT001"
    assert diag["path"] == "repro/sim/x.py"
    assert diag["severity"] == "error"
    assert diag["line"] == 2 and isinstance(diag["col"], int)
    assert "message" in diag and diag["waived"] is False


def test_failed_policy_strict_vs_default():
    warn_only = "def f(s):\n    for x in set(s):\n        use(x)\n"
    report = lint_sources({"repro/sim/x.py": warn_only})
    assert [d.severity for d in report.diagnostics] == [Severity.WARNING]
    assert not report.failed()
    assert report.failed(strict=True)

    clean = lint_sources({"repro/sim/x.py": "x = 1\n"})
    assert not clean.failed(strict=True)


def test_waived_diagnostic_counts_as_waived_not_error():
    src = "import time\nt0 = time.time()  # repro: allow[DT001]  -- why\n"
    report = lint_sources({"repro/sim/x.py": src})
    assert report.errors == []
    assert len(report.waived) == 1
    assert report.waived[0].waiver_reason == "why"


def test_syntax_error_reported_as_e999():
    report = lint_sources({"repro/sim/x.py": "def broken(:\n"})
    assert [d.rule for d in report.diagnostics] == ["E999"]
    assert report.failed()


def test_discover_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    a = tmp_path / "pkg" / "a.py"
    b = tmp_path / "pkg" / "b.py"
    other = tmp_path / "pkg" / "notes.txt"
    for f in (a, b, other):
        f.write_text("x = 1\n")
    found = discover_files([tmp_path, a])
    assert found == [a, b]
    with pytest.raises(FileNotFoundError):
        discover_files([tmp_path / "missing"])


def test_render_mentions_counts():
    report = lint_sources({"repro/sim/x.py": DIRTY})
    text = report.render()
    assert "repro/sim/x.py:2:" in text
    assert "1 error(s)" in text
