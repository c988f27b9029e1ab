"""Diagnostic records emitted by the linter.

A :class:`Diagnostic` pins one rule violation to an exact source span
(1-based line, 0-based column, matching :mod:`ast` node offsets).  The
span is part of the contract: rule unit tests assert it exactly, and the
JSON output feeds editor integrations that need precise anchors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any


class Severity(enum.Enum):
    """How seriously a diagnostic should be taken.

    ``ERROR`` diagnostics fail the lint run; ``WARNING`` diagnostics fail
    it only under ``--strict`` (which CI uses).  Heuristic rules whose
    matches occasionally need human judgement default to ``WARNING``.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        """The lowercase severity name (as printed in diagnostics)."""
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    end_line: int | None = None
    end_col: int | None = None
    waived: bool = False
    waiver_reason: str | None = None

    def with_waiver(self, reason: str | None) -> Diagnostic:
        """A copy marked as suppressed by an inline waiver."""
        return replace(self, waived=True, waiver_reason=reason)

    def render(self) -> str:
        """Human-readable one-line form (``path:line:col RULE message``)."""
        mark = " (waived)" if self.waived else ""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity}]{mark} {self.message}"
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form (stable schema, see docs/static-analysis.md)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "end_col": self.end_col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }
