"""CC pack: call-graph contracts for cross-process pool workers.

The fleet engine, the experiment runner and the tuner all ship worker
callables into process pools.  MP001 already polices the *syntactic*
shape (a module-level def); these rules use the resolved worker set
and the transitive effect summaries to police what a worker *reaches*:

- **CC001** — a worker mutates module-level state, in its own body or
  in any callee.  Each pool process has its own copy of that state, so
  the mutation silently diverges between jobs=1 and jobs=N.
- **CC002** — a worker's call closure reads a module-level RNG
  instance.  Even a seeded RNG shared this way consumes differently as
  chunk boundaries move, breaking seed-determinism across ``--jobs``.
- **CC003** — a worker def carries a mutable default argument; the
  default is per-process state that outlives chunks.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.astutil import iter_scoped_functions
from repro.analysis.lint.context import ProjectContext
from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.rules import ParsedModule, Rule

#: Calls whose result is a fresh mutable container per evaluation — as a
#: *default argument* they are evaluated once per process instead.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque"})


def _worker_defs(
    module: ParsedModule, ctx: ProjectContext
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(function id, def node)`` for pool workers defined in this module."""
    graph = ctx.graph
    if graph is None:
        return
    for qual, _owner, fn in iter_scoped_functions(module.tree):
        fid = f"{module.path}::{qual}"
        if fid in graph.workers:
            yield fid, fn


def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(chain)


def _check_cc001(
    rule: Rule, module: ParsedModule, ctx: ProjectContext
) -> Iterator[Diagnostic]:
    """Flag workers whose call closure mutates module-level state."""
    graph = ctx.graph
    if graph is None:
        return
    for fid, fn in _worker_defs(module, ctx):
        chain = graph.effects[fid].global_write_chain
        if chain is not None:
            yield rule.diagnostic(
                module,
                fn,
                f"pool worker `{fn.name}` mutates module state: {_chain_text(chain)}; "
                "pass state through the work unit instead",
            )


def _check_cc002(
    rule: Rule, module: ParsedModule, ctx: ProjectContext
) -> Iterator[Diagnostic]:
    """Flag workers whose call closure reads a module-level RNG."""
    graph = ctx.graph
    if graph is None:
        return
    for fid, fn in _worker_defs(module, ctx):
        chain = graph.effects[fid].rng_read_chain
        if chain is not None:
            yield rule.diagnostic(
                module,
                fn,
                f"pool worker `{fn.name}` shares a module-level RNG across "
                f"chunks: {_chain_text(chain)}; derive a per-task RNG from "
                "the task's own seed instead",
            )


def _check_cc003(
    rule: Rule, module: ParsedModule, ctx: ProjectContext
) -> Iterator[Diagnostic]:
    """Flag mutable default arguments on pool worker defs."""
    for _fid, fn in _worker_defs(module, ctx):
        args = fn.args
        for default in (*args.defaults, *args.kw_defaults):
            if default is None:
                continue
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            )
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            ):
                mutable = True
            if mutable:
                yield rule.diagnostic(
                    module,
                    default,
                    f"mutable default on pool worker `{fn.name}`; it is "
                    "evaluated once per process and carries state across "
                    "chunks",
                )


CC001 = Rule(
    id="CC001",
    pack="CC",
    title="worker call graph mutates module state",
    severity=Severity.ERROR,
    rationale=(
        "Each pool process owns a private copy of every module global; a "
        "mutation in a worker, or anywhere in its call closure, therefore "
        "diverges between jobs=1 and jobs=N."
    ),
    check=lambda module, ctx: _check_cc001(CC001, module, ctx),
)

CC002 = Rule(
    id="CC002",
    pack="CC",
    title="worker shares a module-level RNG across chunks",
    severity=Severity.ERROR,
    rationale=(
        "A module-level RNG instance is re-created per process and consumed "
        "in chunk order, so results depend on the chunking — seeded or not. "
        "Workers must derive a private RNG from their task's own seed."
    ),
    check=lambda module, ctx: _check_cc002(CC002, module, ctx),
)

CC003 = Rule(
    id="CC003",
    pack="CC",
    title="mutable default argument on a pool worker",
    severity=Severity.WARNING,
    rationale=(
        "Default arguments are evaluated once per process; a mutable one is "
        "hidden per-process state that accumulates across the chunks that "
        "process happens to execute, making output chunking-dependent."
    ),
    check=lambda module, ctx: _check_cc003(CC003, module, ctx),
)

#: The CC pack, in id order.
RULES: tuple[Rule, ...] = (CC001, CC002, CC003)
