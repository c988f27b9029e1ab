"""MP pack — picklability of work shipped to the process pool.

The experiment runner fans work out over ``multiprocessing`` with the
spawn/forkserver start methods; everything crossing the pool boundary is
pickled.  A lambda or nested function handed to a ``map_fn`` hook dies
with an opaque ``PicklingError`` only when ``--jobs > 1`` is actually
used, so MP001 flags it where it is written.  What a worker *does* once
it runs (module-state writes, shared RNGs) is the CC pack's business.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.context import ProjectContext
from repro.analysis.lint.diagnostics import Severity
from repro.analysis.lint.rules import ParsedModule, Rule


def _nested_defs(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function."""
    nested: set[str] = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(fn):
            if sub is fn:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(sub.name)
    return nested


def _map_fn_callables(tree: ast.Module) -> Iterator[tuple[ast.expr, str]]:
    """Yield (node, role) for every callable handed to a map_fn hook.

    Covers the two sides of the contract: ``f(..., map_fn=<callable>)``
    (installing the map) and ``map_fn(<work_fn>, ...)`` (dispatching work
    through it).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg == "map_fn":
                yield kw.value, "map_fn= argument"
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "map_fn" and node.args:
            yield node.args[0], "work callable of a map_fn(...) dispatch"


def _check_picklable(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    nested = _nested_defs(module.tree)
    for callable_node, role in _map_fn_callables(module.tree):
        if isinstance(callable_node, ast.Lambda):
            yield MP001.diagnostic(
                module,
                callable_node,
                f"lambda as {role}; lambdas cannot be pickled to "
                f"spawn/forkserver pool workers — use a module-level "
                f"function",
            )
        elif isinstance(callable_node, ast.Name) and callable_node.id in nested:
            yield MP001.diagnostic(
                module,
                callable_node,
                f"nested function `{callable_node.id}` as {role}; closures "
                f"cannot be pickled to pool workers — hoist it to module "
                f"level",
            )


MP001 = Rule(
    id="MP001",
    pack="MP",
    title="unpicklable callable handed to a map_fn hook",
    severity=Severity.ERROR,
    rationale=(
        "Work crossing the process-pool boundary is pickled; lambdas and "
        "closures fail only at --jobs > 1, far from where they were written."
    ),
    check=_check_picklable,
)

RULES = (MP001,)
