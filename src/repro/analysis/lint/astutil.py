"""Shared AST plumbing for the rule packs.

Import resolution maps local aliases back to canonical dotted names
(``from time import perf_counter as pc`` makes ``pc()`` resolve to
``time.perf_counter``), so the determinism rules match *what is called*,
not how the import was spelled.  The float-taint walk asks whether an
expression can introduce a non-integer into the integer-nanosecond time
domain, pruning subtrees that an explicit integer conversion already
sanitises.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Calls that re-integerise their result; float arithmetic beneath one
#: of these is already sanitised when it reaches the clock API.
INT_SANITISERS = frozenset({"int", "round", "len", "from_seconds", "from_millis", "from_micros"})

#: ``try`` statements, including PEP 654 ``try/except*``.  Use this
#: instead of ``ast.Try`` in isinstance checks so exception-group
#: handlers are traversed rather than silently falling through.
TRY_NODES: tuple[type[ast.AST], ...] = (ast.Try, ast.TryStar)

#: PEP 695 ``type X = ...`` statements (3.12+); empty tuple on older
#: interpreters so ``isinstance(node, TYPE_ALIAS_NODES)`` is just False.
TYPE_ALIAS_NODES: tuple[type[ast.AST], ...] = (
    (ast.TypeAlias,) if hasattr(ast, "TypeAlias") else ()  # type: ignore[attr-defined]
)


def is_type_alias(node: ast.AST) -> bool:
    """Whether ``node`` is a PEP 695 ``type X = ...`` statement."""
    return bool(TYPE_ALIAS_NODES) and isinstance(node, TYPE_ALIAS_NODES)


def iter_child_nodes_compat(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.iter_child_nodes`` that is safe on 3.12 node kinds.

    Two differences from the stdlib helper:

    - PEP 695 type-alias statements are yielded as opaque leaves — their
      value subtree is a *type expression*, not runtime code, so walking
      into it would make rules report on annotations;
    - ``try/except*`` handlers are traversed explicitly, so a walker
      written against ``ast.Try`` still sees code inside exception-group
      handlers instead of skipping the statement wholesale.
    """
    if is_type_alias(node):
        return
    if isinstance(node, TRY_NODES):
        for stmt in (
            *getattr(node, "body", ()),
            *getattr(node, "handlers", ()),
            *getattr(node, "orelse", ()),
            *getattr(node, "finalbody", ()),
        ):
            yield stmt
        return
    yield from ast.iter_child_nodes(node)


def iter_scoped_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, enclosing_class, def_node)`` for every function.

    Qualified names join enclosing class and function names with dots
    (``Kernel.run``, ``outer.inner``), matching the ids the call-graph
    extraction assigns, so rules can look a def node's effect summary up
    directly.  Traversal uses :func:`iter_child_nodes_compat`, so defs
    inside ``except*`` handlers are found and PEP 695 aliases skipped.
    """

    def visit(
        node: ast.stmt, class_stack: tuple[str, ...], func_stack: tuple[str, ...]
    ) -> Iterator[tuple[str, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                yield from visit(stmt, (*class_stack, node.name), func_stack)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = ".".join((*class_stack, *func_stack, node.name))
            owner = class_stack[-1] if class_stack else ""
            yield qual, owner, node
            for stmt in node.body:
                yield from visit(stmt, class_stack, (*func_stack, node.name))
            return
        for child in iter_child_nodes_compat(node):
            if isinstance(child, ast.stmt):
                yield from visit(child, class_stack, func_stack)

    for stmt in tree.body:
        yield from visit(stmt, (), ())


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map every imported local name to its canonical dotted path."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a ``Name``/``Attribute`` chain, if any.

    ``np.random.seed`` with ``import numpy as np`` resolves to
    ``numpy.random.seed``; anything rooted in a non-import (a local
    variable, a call result) resolves to ``None``.
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def float_taints(node: ast.expr) -> Iterator[ast.expr]:
    """Yield sub-expressions that put floats into an integer time value.

    Taints are float literals and true divisions.  Subtrees under an
    explicit integer sanitiser (``int(...)``, ``round(...)``,
    ``from_seconds(...)``, ...) are pruned — their float arithmetic never
    escapes as a float.
    """
    stack: list[ast.expr] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Call):
            fn = cur.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name in INT_SANITISERS:
                continue  # sanitised subtree
            stack.extend(cur.args)
            stack.extend(kw.value for kw in cur.keywords)
            continue
        if isinstance(cur, ast.Constant) and type(cur.value) is float:
            yield cur
            continue
        if isinstance(cur, ast.BinOp):
            if isinstance(cur.op, ast.Div):
                yield cur
            stack.extend((cur.left, cur.right))
            continue
        stack.extend(ast.iter_child_nodes(cur))  # type: ignore[arg-type]


def is_float_tainted(node: ast.expr) -> bool:
    """Whether :func:`float_taints` finds anything under ``node``."""
    return next(float_taints(node), None) is not None


def target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment/loop target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)


def loaded_names(node: ast.AST) -> set[str]:
    """Every name read (Load context) anywhere under ``node``."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def is_set_expr(node: ast.expr, set_vars: set[str], set_attrs: set[str]) -> bool:
    """Whether ``node`` is statically known to evaluate to a ``set``.

    Recognises set literals/comprehensions, ``set()``/``frozenset()``
    calls, local names bound to one (``set_vars``), annotated ``self.x``
    attributes (``set_attrs``), and set-algebra method calls on any of
    those.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in {"set", "frozenset"}:
            return True
        if isinstance(fn, ast.Attribute) and fn.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return is_set_expr(fn.value, set_vars, set_attrs)
        return False
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.Attribute):
        # any base object: `self.members` but also `server.members` when
        # the attribute name is project-wide known to be a set.
        return node.attr in set_attrs
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left, set_vars, set_attrs) or is_set_expr(
            node.right, set_vars, set_attrs
        )
    return False


def annotation_is_set(annotation: ast.expr | None) -> bool:
    """Whether a type annotation denotes ``set``/``frozenset`` (any params)."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Set", "FrozenSet", "MutableSet"}
    return False
