"""Execute every runnable fenced Python block in README.md and docs/.

The contract (documented in the README): a block fenced as
```` ```python ```` must execute top to bottom; blocks within one file
run cumulatively in a shared namespace, so later examples may build on
earlier ones.  Blocks fenced ```` ```python no-run ```` are schema or
pseudocode displays and are skipped.  ``make docs-check`` runs just
this module.

The namespace is pre-seeded with the small fixtures the prose assumes
(a 4-cycle ``graph`` with string node names), keeping the examples
short without making them lie.

``test_links_and_paths_resolve`` also holds the prose to the tree: every
relative Markdown link and every backticked repo path in README.md,
DESIGN.md, EXPERIMENTS.md and docs/ must name a file that exists.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

import networkx as nx
import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

#: The pages whose links and backticked paths must resolve.
LINKED_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
     *(REPO / "docs").glob("*.md")],
    key=lambda p: p.name,
)

_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.S | re.M)
_ANY_PYTHON_FENCE = re.compile(r"^```python\b", re.M)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REPO_PATH = re.compile(r"`((?:tests|benchmarks|src|examples|docs|pipebench)/[^`\s]*)`")


def _fixtures() -> dict:
    return {"graph": nx.relabel_nodes(nx.cycle_graph(4), str)}


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_runnable_blocks_execute(path):
    text = path.read_text()
    blocks = _FENCE.findall(text)
    total_python = len(_ANY_PYTHON_FENCE.findall(text))
    namespace = _fixtures()
    for index, source in enumerate(blocks):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exec(compile(source, f"{path.name}:block{index}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{path.name} runnable block {index} raised "
                f"{type(exc).__name__}: {exc}\n--- block ---\n{source}"
            )
    # sanity: the no-run escape hatch isn't silently eating everything
    skipped = total_python - len(blocks)
    assert skipped <= max(2, total_python // 2), (
        f"{path.name}: {skipped}/{total_python} python blocks marked no-run — "
        "runnable examples are the point; fix them instead of opting out"
    )


def test_docs_tree_is_linked_from_readme():
    readme = (REPO / "README.md").read_text()
    for page in sorted((REPO / "docs").glob("*.md")):
        assert f"docs/{page.name}" in readme, f"{page.name} not linked from README"


def _broken_references(path: pathlib.Path) -> list[str]:
    """``file:line: target`` for each reference in ``path`` that names nothing."""
    broken = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for target in _LINK.findall(line):
            if target.startswith(("#", "http://", "https://", "mailto:")):
                continue
            if not (path.parent / target.split("#")[0]).exists():
                broken.append(f"{path.relative_to(REPO)}:{lineno}: {target}")
        for ref in _REPO_PATH.findall(line):
            if not (REPO / ref.split("::")[0]).exists():
                broken.append(f"{path.relative_to(REPO)}:{lineno}: {ref}")
    return broken


def test_links_and_paths_resolve():
    broken = [ref for path in LINKED_FILES for ref in _broken_references(path)]
    assert not broken, "references to missing files:\n" + "\n".join(broken)
