"""Determinism & sim-invariant linter (static analysis).

Every guarantee the reproduction makes — bit-identical golden traces,
telemetry transparency, zero-intensity fault transparency — is enforced
*dynamically*, after a hazard has been committed.  This package closes
the gap statically: an AST-based linter with domain-specific rule packs
catches wall-clock reads, ambient entropy, float time arithmetic,
ordering-dependent set iteration and simulation-contract violations at
lint time, before any simulation runs.

Rule packs
----------

- **DT (determinism)** — hazards that break bit-identical replay:
  wall-clock reads, unseeded randomness, float literals flowing into the
  integer-nanosecond clock API, float ``==``, iteration over unordered
  sets.
- **SC (simulation contracts)** — invariants of the DES kernel: syscall
  instructions must be ``yield``-ed, calendar closures must not capture
  loop variables, ``__slots__`` classes must not be monkey-patched.
- **MP (multiprocessing safety)** — ``map_fn`` work callables must be
  module-level picklables.
- **OB / CC / KN (interprocedural)** — telemetry guards stay read-only,
  pool workers reach no module state or shared RNG, knob keys resolve
  in the registry; all three query the whole-project call graph.
- **WV (waivers)** — the audit trail itself: every inline waiver
  (``# repro: allow[RULE]  -- reason``) must carry a reason and must
  actually suppress something.

Entry points: ``repro-exp lint`` / ``python -m repro.analysis`` on the
command line, :func:`lint_paths` / :func:`lint_source` from Python.
"""

from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.engine import LintConfig, LintReport, lint_paths, lint_source
from repro.analysis.lint.rules import RULES, Rule
from repro.analysis.lint.waivers import Waiver, parse_waivers

__all__ = [
    "Diagnostic",
    "Severity",
    "LintConfig",
    "LintReport",
    "lint_paths",
    "lint_source",
    "RULES",
    "Rule",
    "Waiver",
    "parse_waivers",
]
