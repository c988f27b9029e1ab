"""Lint driver: file discovery, scoping, rule execution, waiver audit.

The engine parses every file once, builds the cross-file
:class:`~repro.analysis.lint.context.ProjectContext`, runs each rule
over the files its scope covers, and then settles the waiver ledger:
an inline waiver suppresses matching diagnostics on its target line,
a reason-less waiver is reported as ``WV001`` and a waiver that
suppresses nothing as ``WV002`` — so the suppression surface can only
shrink, never silently rot.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Any

from repro.analysis.lint.callgraph import ModuleFacts, extract_module_facts
from repro.analysis.lint.context import ProjectContext, build_context_from_facts
from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.rules import RULES, ParsedModule, Rule
from repro.analysis.lint.waivers import Waiver, parse_waivers

#: Path fragments (posix) a rule is restricted to by default.  Rules
#: absent from this table run everywhere.  The determinism pack guards
#: the simulation core; wall-clock reads in the experiment *harness*
#: (timing how long a sweep took) are legitimate.
SIM_DIRS = (
    "repro/sim/",
    "repro/sched/",
    "repro/core/",
    "repro/workloads/",
    "repro/faults/",
    "repro/fleet/",
)

DEFAULT_SCOPE: dict[str, tuple[str, ...]] = {
    "DT001": SIM_DIRS,
    # the tuner promises seed-determinism (same seed => byte-identical
    # report), so its RNG discipline is guarded like the sim core's
    "DT002": SIM_DIRS + ("repro/tune/",),
    "DT003": SIM_DIRS,
    # repro/core/events holds trigger thresholds compared against event
    # counts and virtual times: float equality there is always a bug
    # (DT003 already covers it through the repro/core/ entry above)
    "DT004": ("repro/sched/", "repro/faults/", "repro/fleet/", "repro/tune/", "repro/core/events"),
    "DT005": SIM_DIRS,
    # digest construction only: elsewhere dict views are insertion-ordered
    # and deterministic, but a digest must be canonical across histories
    "DT006": ("repro/sim/cycles", "repro/fleet/summary"),
    # the telemetry read-only theorem applies where `_obs` hook sites
    # live: the sim kernel, the schedulers, the runtime/controller/
    # supervisor/daemon stack, the fault harness and the trace recorder.
    # repro/obs/ itself is exempt: the hub mutating its own sinks is the
    # point, and effect extraction already discounts it.
    "OB001": ("repro/sim/", "repro/sched/", "repro/core/", "repro/faults/", "repro/tracer/"),
    "OB002": ("repro/sim/", "repro/sched/", "repro/core/", "repro/faults/", "repro/tracer/"),
}

#: Waiver-audit pseudo-rules (engine-level; they have no ``check``).
WV001 = ("WV001", "waiver without a reason")
WV002 = ("WV002", "waiver that suppresses nothing")


@dataclass(frozen=True)
class LintConfig:
    """Which rules to run."""

    rules: tuple[Rule, ...] = tuple(RULES.values())


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    waivers: list[Waiver] = field(default_factory=list)
    files: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        """Active (non-waived) error diagnostics."""
        return [d for d in self.diagnostics if not d.waived and d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Active (non-waived) warning diagnostics."""
        return [d for d in self.diagnostics if not d.waived and d.severity is Severity.WARNING]

    @property
    def waived(self) -> list[Diagnostic]:
        """Diagnostics suppressed by an inline waiver."""
        return [d for d in self.diagnostics if d.waived]

    def failed(self, *, strict: bool = False) -> bool:
        """Whether the run should exit non-zero."""
        if self.errors:
            return True
        return strict and bool(self.warnings)

    def to_json(self) -> dict[str, Any]:
        """Machine-readable report (schema v3, see docs/static-analysis.md)."""
        return {
            "version": 3,
            "tool": "repro.analysis.lint",
            "files": self.files,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "waivers": [
                {
                    "path": w.path,
                    "line": w.line,
                    "rules": list(w.rules),
                    "reason": w.reason,
                }
                for w in self.waivers
            ],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "waived": len(self.waived),
                "files": self.files,
            },
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [d.render() for d in self.diagnostics if not d.waived]
        lines.append(
            f"{self.files} file(s): {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.waived)} waived"
        )
        return "\n".join(lines)


def _rule_applies(rule_id: str, path: str) -> bool:
    fragments = DEFAULT_SCOPE.get(rule_id)
    if fragments is None:
        return True
    posix = Path(path).as_posix()
    return any(fragment in posix for fragment in fragments)


def _apply_waivers(
    diagnostics: list[Diagnostic],
    waivers: Sequence[Waiver],
    used: set[Waiver],
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for diag in diagnostics:
        matched = None
        for waiver in waivers:
            if waiver.target_line == diag.line and waiver.covers(diag.rule):
                matched = waiver
                break
        if matched is not None:
            used.add(matched)
            out.append(diag.with_waiver(matched.reason))
        else:
            out.append(diag)
    return out


def _parse_error_diag(path: str, exc: Exception) -> Diagnostic:
    lineno = getattr(exc, "lineno", 1) or 1
    offset = (getattr(exc, "offset", 1) or 1) - 1
    return Diagnostic(
        rule="E999",
        severity=Severity.ERROR,
        path=path,
        line=lineno,
        col=offset,
        message=f"source failed to parse: {exc}",
    )


def _lint_one_file(
    path: str,
    source: str,
    tree: ast.Module,
    config: LintConfig,
    ctx: ProjectContext,
) -> tuple[list[Diagnostic], list[Waiver]]:
    """Run rules + waiver settlement on one parsed file."""
    file_diags: list[Diagnostic] = []
    module = ParsedModule(path=path, source=source, tree=tree)
    for rule in config.rules:
        if not _rule_applies(rule.id, path):
            continue
        file_diags.extend(rule.check(module, ctx))
    file_diags.sort(key=lambda d: (d.line, d.col, d.rule))
    waivers = parse_waivers(source, path)
    used: set[Waiver] = set()
    file_diags = _apply_waivers(file_diags, waivers, used)
    selected_ids = {rule.id for rule in config.rules}
    for waiver in waivers:
        if waiver.reason is None:
            file_diags.append(
                Diagnostic(
                    rule=WV001[0],
                    severity=Severity.ERROR,
                    path=path,
                    line=waiver.line,
                    col=0,
                    message="waiver without a reason; write `# repro: allow[RULE]  -- why`",
                )
            )
        # a waiver for a rule outside the selected set cannot be
        # judged useless — its rule never ran (--select subsets)
        judgeable = any(waiver.covers(rid) for rid in selected_ids)
        if waiver not in used and judgeable:
            file_diags.append(
                Diagnostic(
                    rule=WV002[0],
                    severity=Severity.ERROR,
                    path=path,
                    line=waiver.line,
                    col=0,
                    message=f"waiver for {', '.join(waiver.rules)} suppresses nothing; delete it",
                )
            )
    return file_diags, list(waivers)


def lint_sources(
    sources: dict[str, str],
    *,
    config: LintConfig | None = None,
    ctx: ProjectContext | None = None,
) -> LintReport:
    """Lint in-memory ``{path: source}`` files (the engine's heart).

    Two phases.  **Facts**: every file is parsed so the interprocedural
    context sees the whole project (a caller may pass a prebuilt
    ``ctx`` instead).  **Rules**: rules run per file, then the file's
    waivers are settled.
    """
    config = config or LintConfig()
    report = LintReport(files=len(sources))

    trees: dict[str, ast.Module] = {}
    facts: list[ModuleFacts] = []
    for path, source in sources.items():
        try:
            trees[path] = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:
            # a file that fails to parse contributes no facts
            report.diagnostics.append(_parse_error_diag(path, exc))
            continue
        facts.append(extract_module_facts(path, trees[path]))
    if ctx is None:
        ctx = build_context_from_facts(facts)

    for path, tree in trees.items():
        file_diags, waivers = _lint_one_file(path, sources[path], tree, config, ctx)
        report.diagnostics.extend(file_diags)
        report.waivers.extend(waivers)
    report.diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return report


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    config: LintConfig | None = None,
) -> list[Diagnostic]:
    """Lint one in-memory source string; returns its diagnostics.

    Convenience wrapper used by rule unit tests and doc examples:

    >>> diags = lint_source(
    ...     "import time\\nt0 = time.time()\\n",
    ...     path="repro/sim/demo.py",
    ... )
    >>> [(d.rule, d.line) for d in diags]
    [('DT001', 2)]
    """
    return lint_sources({path: source}, config=config).diagnostics


def discover_files(paths: Iterable[str | os.PathLike[str]]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.suffix == ".py" and path.is_file():
            out.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return list(dict.fromkeys(out))


def lint_paths(
    paths: Iterable[str | os.PathLike[str]],
    *,
    config: LintConfig | None = None,
) -> LintReport:
    """Lint files and directories on disk, keyed by cwd-relative posix path."""
    cwd = Path.cwd()
    sources: dict[str, str] = {}
    for file in discover_files(paths):
        try:
            key = file.resolve().relative_to(cwd).as_posix()
        except ValueError:
            key = file.as_posix()
        sources[key] = file.read_text(encoding="utf-8")
    return lint_sources(sources, config=config)
