"""CLI tests: ``repro-exp lint`` and ``python -m repro.analysis``."""

from __future__ import annotations

import json

import pytest

from repro.analysis.lint.cli import build_parser, main as lint_main
from repro.cli import main as repro_main

DIRTY = "import time\nt0 = time.time()\n"
CLEAN = "x = 1\n"


@pytest.fixture
def dirty_file(tmp_path):
    target = tmp_path / "repro" / "sim" / "fx.py"
    target.parent.mkdir(parents=True)
    target.write_text(DIRTY, encoding="utf-8")
    return target


def test_module_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "repro" / "sim" / "ok.py"
    target.parent.mkdir(parents=True)
    target.write_text(CLEAN, encoding="utf-8")
    assert lint_main([str(target)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_module_cli_dirty_file_exits_one(dirty_file, capsys):
    assert lint_main([str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "DT001" in out


def test_json_report_schema_via_repro_exp(dirty_file, capsys):
    code = repro_main(["lint", "--json", str(dirty_file)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 3
    assert doc["tool"] == "repro.analysis.lint"
    assert doc["summary"]["errors"] == 1
    (diag,) = doc["diagnostics"]
    assert diag["rule"] == "DT001"
    assert diag["line"] == 2


def test_select_glob_patterns(dirty_file, capsys):
    assert repro_main(["lint", "--select", "DT00[2-9]", str(dirty_file)]) == 0
    capsys.readouterr()
    assert repro_main(["lint", "--select", "DT*", str(dirty_file)]) == 1
    capsys.readouterr()


def test_select_restricts_rules(dirty_file, capsys):
    assert repro_main(["lint", "--select", "SC", str(dirty_file)]) == 0
    capsys.readouterr()


def test_bad_select_is_usage_error(dirty_file, capsys):
    assert repro_main(["lint", "--select", "ZZ9", str(dirty_file)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules_catalogue(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DT001", "SC001", "MP001", "WV001", "WV002"):
        assert rule_id in out


def test_strict_promotes_warnings(tmp_path, capsys):
    target = tmp_path / "repro" / "sim" / "warn.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(s):\n    for x in set(s):\n        use(x)\n")
    assert lint_main([str(target)]) == 0
    assert lint_main(["--strict", str(target)]) == 1
    capsys.readouterr()


def test_parser_offers_only_the_four_flags():
    flags = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert flags == {"-h", "--help", "--json", "--select", "--strict", "--list-rules"}
