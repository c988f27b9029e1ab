"""Command-line front end of the linter.

Reached two ways — ``repro-exp lint ...`` (subcommand of the main CLI)
and ``python -m repro.analysis ...`` (standalone, importable without the
experiment stack).  Exit status: 0 clean, 1 diagnostics found, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.lint.engine import DEFAULT_SCOPE, LintConfig, LintReport, lint_paths
from repro.analysis.lint.rules import RULES, select_rules


#: Default lint target: the installed ``repro`` package source tree.
def default_paths() -> list[str]:
    """Locate ``src/repro`` relative to this file (works from a checkout)."""
    import repro

    return [p for p in repro.__path__]


def build_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Create (or extend, for the ``repro-exp lint`` subcommand) the parser."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="python -m repro.analysis",
            description="Determinism & sim-invariant linter for the repro tree.",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (schema v3)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids, pack prefixes or globs (e.g. DT001,SC,CC*)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (the CI setting)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def list_rules_text() -> str:
    """The rule catalogue as aligned text (also used by --list-rules)."""
    lines = []
    for rule in RULES.values():
        scope = DEFAULT_SCOPE.get(rule.id)
        where = ", ".join(s.rstrip("/") for s in scope) if scope else "everywhere"
        lines.append(f"{rule.id}  {rule.severity.value:7s}  {rule.title}  [{where}]")
    lines.append("WV001  error    waiver without a reason  [everywhere]")
    lines.append("WV002  error    waiver that suppresses nothing  [everywhere]")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        print(list_rules_text())
        return 0
    try:
        rules = select_rules(
            [s.strip() for s in args.select.split(",") if s.strip()]
            if args.select
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report: LintReport = lint_paths(
            args.paths or default_paths(), config=LintConfig(rules=tuple(rules))
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, allow_nan=False))
    else:
        print(report.render())
    return 1 if report.failed(strict=args.strict) else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    return run_lint(build_parser().parse_args(argv))
