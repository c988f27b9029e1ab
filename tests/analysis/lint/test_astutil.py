"""astutil syntax-compat tests: TryStar, PEP 695 aliases, scoped defs."""

from __future__ import annotations

import ast
import sys

import pytest

from repro.analysis.lint.astutil import (
    TYPE_ALIAS_NODES,
    is_type_alias,
    iter_child_nodes_compat,
    iter_scoped_functions,
)
from repro.analysis.lint.engine import lint_sources

TRYSTAR_SRC = (
    "import time\n"
    "def f():\n"
    "    try:\n"
    "        t0 = time.time()\n"
    "    except* ValueError:\n"
    "        t1 = time.time()\n"
    "    else:\n"
    "        t2 = time.time()\n"
    "    finally:\n"
    "        t3 = time.time()\n"
)

PEP695_SRC = "type Vector = list[float]\n\n\ndef f():\n    return 1\n"


def test_try_star_bodies_are_traversed():
    tree = ast.parse(TRYSTAR_SRC)
    report = lint_sources({"repro/sim/ts.py": TRYSTAR_SRC})
    # every wall-clock read inside try*/except*/else/finally is seen
    lines = sorted(d.line for d in report.diagnostics if d.rule == "DT001")
    assert lines == [4, 6, 8, 10]
    del tree


def test_iter_child_nodes_compat_yields_trystar_children():
    tree = ast.parse(TRYSTAR_SRC)
    fn = tree.body[1]
    trystar = fn.body[0]
    kinds = {type(child).__name__ for child in iter_child_nodes_compat(trystar)}
    assert "Assign" in kinds  # body statement surfaced
    assert "ExceptHandler" in kinds


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="PEP 695 syntax needs Python 3.12+"
)
def test_pep695_type_alias_is_opaque_leaf():
    tree = ast.parse(PEP695_SRC)
    alias = tree.body[0]
    assert is_type_alias(alias)
    assert list(iter_child_nodes_compat(alias)) == []
    report = lint_sources({"repro/sim/ta.py": PEP695_SRC})
    assert not report.errors


def test_type_alias_nodes_tuple_matches_runtime():
    if sys.version_info >= (3, 12):
        assert TYPE_ALIAS_NODES
    else:
        assert not is_type_alias(ast.parse("x = 1").body[0])


def test_iter_scoped_functions_qualnames():
    tree = ast.parse(
        "def top():\n"
        "    def inner():\n"
        "        pass\n"
        "class C:\n"
        "    def m(self):\n"
        "        pass\n"
        "    class D:\n"
        "        def n(self):\n"
        "            pass\n"
    )
    got = {(qual, owner) for qual, owner, _node in iter_scoped_functions(tree)}
    assert ("top", "") in got
    assert ("top.inner", "") in got
    assert ("C.m", "C") in got
    assert ("C.D.n", "D") in got


def test_trystar_does_not_break_facts_extraction():
    from repro.analysis.lint.callgraph import extract_module_facts

    facts = extract_module_facts("repro/sim/ts.py", ast.parse(TRYSTAR_SRC))
    assert [f.qualname for f in facts.functions] == ["f"]
