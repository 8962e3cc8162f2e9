"""Docs consistency: links resolve, engine names stay real.

Documentation drifts when code moves; these tier-1 checks pin the
parts that are cheap to verify mechanically:

* every internal (non-http) markdown link and every ``docs/X.md`` /
  ``UPPERCASE.md`` file reference in the docs points at a file that
  exists;
* every engine name a doc offers through ``REPRO_ENGINE=...`` is one
  ``build_simulator`` actually accepts, and every accepted engine is
  documented in the canonical matrix (docs/ARCHITECTURE.md);
* the benchmark artifacts the docs cite exist at the repo root.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.runner import ENGINES

REPO = Path(__file__).resolve().parent.parent

#: The documentation set under consistency control.
DOC_FILES = sorted(
    list((REPO / "docs").glob("*.md"))
    + [REPO / "README.md", REPO / "EXPERIMENTS.md", REPO / "DESIGN.md"]
)

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FILE_REF = re.compile(r"\b((?:docs/)?[A-Z][A-Z_]*\.md)\b")


def _doc_ids():
    return [p.relative_to(REPO).as_posix() for p in DOC_FILES]


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_markdown_links_resolve(doc):
    text = doc.read_text()
    for target in _MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        target = target.split("#")[0]
        if not target:
            continue
        resolved = (doc.parent / target).resolve()
        if not resolved.is_relative_to(REPO):
            # GitHub-relative URLs (e.g. the CI badge) escape the repo
            # checkout on purpose; only in-repo targets are checkable.
            continue
        assert resolved.exists(), (
            f"{doc.relative_to(REPO)} links to {target!r}, which does "
            f"not exist (resolved: {resolved})"
        )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_named_doc_files_exist(doc):
    """Prose references like ``docs/ARCHITECTURE.md`` or
    ``EXPERIMENTS.md`` must name files that exist (checked against the
    repo root and the docs/ directory)."""
    text = doc.read_text()
    for ref in set(_FILE_REF.findall(text)):
        candidates = (REPO / ref, REPO / "docs" / ref)
        assert any(c.exists() for c in candidates), (
            f"{doc.relative_to(REPO)} mentions {ref!r}, which exists "
            f"neither at the repo root nor under docs/"
        )


_ENGINE_VALUES = re.compile(r"REPRO_ENGINE=([a-zA-Z_|]+)")


def test_documented_engine_values_are_real():
    """Every ``REPRO_ENGINE=...`` value offered anywhere in the docs
    must be accepted by ``build_simulator``."""
    offered = set()
    for doc in DOC_FILES:
        for values in _ENGINE_VALUES.findall(doc.read_text()):
            offered.update(v.lower() for v in values.split("|") if v)
    assert offered, "no REPRO_ENGINE mention found in any doc"
    bogus = offered - set(ENGINES)
    assert not bogus, (
        f"docs offer REPRO_ENGINE value(s) {sorted(bogus)} that "
        f"build_simulator rejects (accepts: {ENGINES})"
    )


def test_every_engine_documented_in_architecture():
    """The canonical matrix in docs/ARCHITECTURE.md must cover every
    engine build_simulator accepts, and its rows must be exactly the
    concrete engines."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    for engine in ENGINES:
        assert f"`{engine}`" in text, (
            f"engine {engine!r} missing from docs/ARCHITECTURE.md"
        )
    rows = set(re.findall(r"^\|\s*`([a-z]+)`\s*\|", text, re.MULTILINE))
    assert rows == set(ENGINES) - {"auto"}, (
        f"docs/ARCHITECTURE.md matrix rows {sorted(rows)} != concrete "
        f"engines"
    )


def test_cited_benchmark_artifacts_exist():
    cited = set()
    for doc in DOC_FILES:
        cited.update(re.findall(r"\bBENCH_[a-z_]+\.json\b", doc.read_text()))
    assert cited, "no benchmark artifact cited in any doc"
    for name in sorted(cited):
        assert (REPO / name).exists(), (
            f"docs cite {name}, which does not exist at the repo root"
        )
