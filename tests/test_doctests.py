"""Run the doctests embedded in the library's docstrings and in docs/.

Every ``repro`` module is walked; each one with at least one example
that is not ``+SKIP``-ped runs.  Also hosts the documentation gates CI
runs standalone: every example in the ``docs/*.md`` pages must execute
(``doctest.testfile``), and every markdown cross-reference must resolve
(``scripts/check_doc_links.py``).
"""

import doctest
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _runs_an_example(module) -> bool:
    return any(
        not example.options.get(doctest.SKIP)
        for test in doctest.DocTestFinder().find(module)
        for example in test.examples
    )


MODULES = [
    module
    for module in (
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    )
    if _runs_an_example(module)
]

DOC_PAGES = sorted(DOCS.glob("*.md"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0  # the examples are really there


def test_doctests_actually_exist():
    total = sum(len(doctest.DocTestFinder().find(m)) for m in MODULES)
    assert total > 0


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_docs_examples_run(page):
    # same semantics as CI's `python -m doctest docs/<page>.md`; pages
    # without `>>>` examples trivially pass (attempted == 0)
    result = doctest.testfile(str(page), module_relative=False)
    assert result.failed == 0


def test_docs_examples_actually_exist():
    parser = doctest.DocTestParser()
    total = sum(
        len(parser.get_examples(page.read_text(encoding="utf-8")))
        for page in DOC_PAGES
    )
    assert total > 0  # at least one page carries runnable examples


def _load_link_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO / "scripts" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = _load_link_checker()
    assert checker.check_links() == []


def test_code_spans_are_not_links_but_code_link_texts_are(tmp_path):
    checker = _load_link_checker()
    page = tmp_path / "page.md"
    page.write_text("Call `TABLE[name](**kw)`; see [`run`](docs/x.md).\n", encoding="utf-8")
    assert checker.links_in(page) == ["docs/x.md"]


def test_docs_index_reaches_every_page():
    checker = _load_link_checker()
    assert checker.check_index_coverage() == []
