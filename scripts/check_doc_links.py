#!/usr/bin/env python
"""Check the repository's markdown cross-references, offline.

Two gates, both enforced by CI (and by ``tests/test_docs.py``):

1. **Links resolve.**  Every relative link or image in the repo's
   markdown files must point at a file that exists; fragment links
   (``file.md#section``) must also name a real heading in the target,
   using GitHub's heading-to-anchor slug rules.
2. **The index is complete.**  ``docs/index.md`` must link (directly)
   to every file under ``docs/`` — a new doc that isn't reachable from
   the table of contents fails the build.

External links (``http(s)://``, ``mailto:``) are *not* fetched — the
check must work offline — and links that resolve outside the repository
(the README's GitHub badge URLs) are skipped.

Usage: ``python scripts/check_doc_links.py`` from anywhere; exits
non-zero with one line per problem.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

# [text](target) and ![alt](target) — target up to the first unescaped ')'
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# ```fenced blocks``` must not contribute links (code samples aren't refs)
_FENCE = re.compile(r"^(```|~~~)")
# nor may `code spans`: `table[key](args)` is code, not a link
_CODE_SPAN = re.compile(r"(`+).+?\1")


def markdown_files() -> list[Path]:
    """Every tracked-tree markdown file: repo root + docs/."""
    return sorted(REPO.glob("*.md")) + sorted(DOCS.glob("*.md"))


def links_in(path: Path) -> list[str]:
    """Relative link targets in ``path``, skipping fenced code blocks
    and code spans."""
    targets: list[str] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(_CODE_SPAN.sub("", line)):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            targets.append(target)
    return targets


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor transform (close enough for ASCII docs)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # inline links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(path: Path) -> set[str]:
    """The anchor slugs of every markdown heading in ``path``."""
    slugs: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        slug = github_slug(line.lstrip("#"))
        # GitHub de-duplicates repeats with -1, -2, ... suffixes
        candidate, n = slug, 1
        while candidate in slugs:
            candidate = f"{slug}-{n}"
            n += 1
        slugs.add(candidate)
    return slugs


def check_links() -> list[str]:
    """Return one message per broken link/anchor across all markdown."""
    problems: list[str] = []
    for doc in markdown_files():
        for target in links_in(doc):
            raw, _, fragment = target.partition("#")
            resolved = (doc.parent / raw).resolve() if raw else doc.resolve()
            try:
                resolved.relative_to(REPO)
            except ValueError:
                continue  # out-of-tree (GitHub badge URLs): not checkable
            if not resolved.exists():
                problems.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                continue
            if fragment and resolved.suffix == ".md" and fragment not in anchors_in(resolved):
                problems.append(f"{doc.relative_to(REPO)}: dead anchor -> {target}")
    return problems


def check_index_coverage() -> list[str]:
    """Every docs/*.md must be linked from docs/index.md."""
    index = DOCS / "index.md"
    if not index.exists():
        return ["docs/index.md is missing"]
    linked = {
        (index.parent / target.partition("#")[0]).resolve()
        for target in links_in(index)
        if target.partition("#")[0]
    }
    problems = []
    for doc in sorted(DOCS.glob("*.md")):
        if doc.name != "index.md" and doc.resolve() not in linked:
            problems.append(f"docs/index.md does not link {doc.relative_to(REPO)}")
    return problems


def main() -> int:
    """Run both gates; print problems; return a process exit code."""
    problems = check_links() + check_index_coverage()
    for problem in problems:
        print(problem, file=sys.stderr)
    n_files = len(markdown_files())
    if problems:
        print(f"{len(problems)} problem(s) across {n_files} markdown files", file=sys.stderr)
        return 1
    print(f"doc links OK: {n_files} markdown files checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
