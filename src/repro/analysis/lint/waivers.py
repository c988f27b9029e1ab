"""Inline waiver syntax: ``# repro: allow[RULE]  -- reason``.

A waiver suppresses diagnostics of the named rule(s) on its own line, or
— when it is the only thing on its line — on the next source line.  The
``-- reason`` suffix is mandatory policy: a reason-less waiver is itself
reported (rule ``WV001``), so every suppression in the tree stays
auditable.

Comments are found with :mod:`tokenize` rather than a line regex so that
waiver-shaped text inside string literals is never mis-parsed.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: Matches the waiver comment body.  Rule list is comma-separated rule
#: ids (``DT001``) or pack prefixes (``DT``); the reason follows ``--``.
WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Z]{2,3}\d{0,3}(?:\s*,\s*[A-Z]{2,3}\d{0,3})*)\]"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Waiver:
    """One parsed waiver comment."""

    path: str
    line: int
    rules: tuple[str, ...]
    reason: str | None
    #: True when the comment is alone on its line (waives the next line).
    own_line: bool

    def covers(self, rule: str) -> bool:
        """Whether this waiver names ``rule`` (exactly or by pack prefix)."""
        return any(rule == r or (r.isalpha() and rule.startswith(r)) for r in self.rules)

    @property
    def target_line(self) -> int:
        """The source line whose diagnostics this waiver suppresses."""
        return self.line + 1 if self.own_line else self.line


def parse_waivers(source: str, path: str = "<string>") -> list[Waiver]:
    """Extract every waiver comment from ``source``.

    >>> ws = parse_waivers("x = now()  # repro: allow[DT001] -- replay stamp\\n")
    >>> (ws[0].rules, ws[0].reason, ws[0].own_line)
    (('DT001',), 'replay stamp', False)
    """
    waivers: list[Waiver] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unparseable source is reported by the engine; no waivers apply.
        return waivers
    for tok in tokens:
        if tok.type is not tokenize.COMMENT:
            continue
        match = WAIVER_RE.search(tok.string)
        if match is None:
            continue
        rules = tuple(r.strip() for r in match.group("rules").split(","))
        line_no = tok.start[0]
        text = lines[line_no - 1] if line_no <= len(lines) else ""
        own_line = text[: tok.start[1]].strip() == ""
        waivers.append(
            Waiver(
                path=path,
                line=line_no,
                rules=rules,
                reason=match.group("reason"),
                own_line=own_line,
            )
        )
    return waivers
