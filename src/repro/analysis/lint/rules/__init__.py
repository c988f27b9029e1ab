"""Rule registry for the determinism & sim-invariant linter.

A rule is a small object with an id (``DT001``), a pack (``DT``), a
default :class:`~repro.analysis.lint.diagnostics.Severity`, and a
``check`` callable that walks one parsed module and yields diagnostics.
The registry (:data:`RULES`) is the single source of truth: the CLI's
``--list-rules``, the docs catalogue test and the engine all read it.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

from repro.analysis.lint.context import ProjectContext
from repro.analysis.lint.diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: str
    source: str
    tree: ast.Module


CheckFn = Callable[[ParsedModule, ProjectContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, documentation and its checker."""

    id: str
    pack: str
    title: str
    severity: Severity
    rationale: str
    check: CheckFn

    def diagnostic(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``'s exact span."""
        return Diagnostic(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None),
            end_col=getattr(node, "end_col_offset", None),
            message=message,
        )


def _build_registry() -> dict[str, Rule]:
    from repro.analysis.lint.rules import (
        concurrency,
        determinism,
        knobpack,
        multiproc,
        observability,
        simcontracts,
    )

    registry: dict[str, Rule] = {}
    for rule in (
        *determinism.RULES,
        *simcontracts.RULES,
        *multiproc.RULES,
        *observability.RULES,
        *concurrency.RULES,
        *knobpack.RULES,
    ):
        if rule.id in registry:  # pragma: no cover - defensive
            raise ValueError(f"duplicate rule id {rule.id}")
        registry[rule.id] = rule
    return registry


#: All registered rules, keyed by id, in pack order.
RULES: dict[str, Rule] = _build_registry()


def select_rules(patterns: Iterable[str] | None) -> list[Rule]:
    """Resolve ``--select`` patterns to rules.

    A pattern is a rule id (``DT001``), a pack prefix (``SC``), or a
    shell-style glob over rule ids (``CC*``, ``DT00[1-3]``):

    >>> [r.id for r in select_rules(["SC"])]
    ['SC001', 'SC002', 'SC003']
    >>> [r.id for r in select_rules(["CC*"])]
    ['CC001', 'CC002', 'CC003']
    >>> [r.id for r in select_rules(["DT00[1-3]"])]
    ['DT001', 'DT002', 'DT003']
    >>> select_rules(None) == list(RULES.values())
    True
    """
    if patterns is None:
        return list(RULES.values())
    chosen: list[Rule] = []
    unknown: list[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = [r for r in RULES.values() if fnmatch.fnmatchcase(r.id, pattern)]
        else:
            matches = [r for r in RULES.values() if r.id == pattern or r.pack == pattern]
        if not matches:
            unknown.append(pattern)
        chosen.extend(m for m in matches if m not in chosen)
    if unknown:
        raise ValueError(f"unknown rule or pack: {', '.join(unknown)}")
    return chosen
