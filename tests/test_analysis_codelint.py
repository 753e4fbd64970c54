"""The codebase lint engine: per-rule fixtures, suppression, reporting,
and the self-lint gate (``repro`` itself must be clean).

Each fixture writes a minimal offending module to ``tmp_path`` and
asserts the rule fires exactly where expected; scoped rules
(REP101/REP102) are exercised by recreating a scoped relative path
(e.g. ``core/env.py``) under the temporary root.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis import (
    Severity,
    gate,
    lint_file,
    lint_package,
    render_json,
    render_text,
)
from repro.analysis.codelint import CODE_RULES, DOCSTRING_MODULES, PARAM_COVERAGE
from repro.analysis.diagnostics import exit_code
from repro.telemetry import KNOWN_SPAN_PREFIXES, is_canonical_name


def write(tmp_path, relpath: str, text: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


class TestRuleFixtures:
    def test_rep101_missing_docstrings(self, tmp_path):
        path = write(
            tmp_path,
            "core/env.py",  # scoped: listed in DOCSTRING_MODULES
            "def public():\n    pass\n",
        )
        diags = lint_file(path, root=tmp_path, rules=("REP101",))
        assert codes(diags) == ["REP101", "REP101"]  # module + function
        assert diags[0].obj == "<module>"
        assert diags[1].obj == "public"

    def test_rep101_skips_unscoped_modules(self, tmp_path):
        path = write(tmp_path, "scratch.py", "def public():\n    pass\n")
        assert lint_file(path, root=tmp_path, rules=("REP101",)) == []

    def test_rep102_undocumented_parameter(self, tmp_path):
        path = write(
            tmp_path,
            "classical/nck_solver.py",  # scoped: one PARAM_COVERAGE entry
            '"""Mod."""\n'
            "class ExactNckSolver:\n"
            '    """Cls."""\n'
            "    def solve(self, env, timeout=None):\n"
            '        """Solve env exactly."""\n',
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP102",))
        assert diag.code == "REP102"
        assert "'timeout'" in diag.message or "timeout" in diag.message

    def test_rep102_flags_vanished_entry_points(self, tmp_path):
        path = write(tmp_path, "classical/nck_solver.py", '"""Mod."""\n')
        (diag,) = lint_file(path, root=tmp_path, rules=("REP102",))
        assert "was not found" in diag.message

    def test_rep201_stdlib_random(self, tmp_path):
        path = write(
            tmp_path, "m.py", "import random\n\nx = random.randint(0, 3)\n"
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP201",))
        assert diag.code == "REP201" and "random.randint" in diag.message

    def test_rep201_legacy_numpy_global(self, tmp_path):
        path = write(tmp_path, "m.py", "import numpy as np\n\nx = np.random.rand(3)\n")
        (diag,) = lint_file(path, root=tmp_path, rules=("REP201",))
        assert "numpy.random.rand" in diag.message

    def test_rep201_bare_default_rng(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "import numpy as np\n\n"
            "rng_ok = np.random.default_rng(7)\n"
            "rng_bad = np.random.default_rng()\n",
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP201",))
        assert diag.line == 4

    def test_rep201_seeded_constructors_pass(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "import numpy as np\n\nss = np.random.SeedSequence(42)\n",
        )
        assert lint_file(path, root=tmp_path, rules=("REP201",)) == []

    def test_rep202_naked_except(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "try:\n    x = 1\nexcept:\n    pass\n",
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP202",))
        assert diag.code == "REP202" and diag.line == 3

    def test_rep203_mutable_default(self, tmp_path):
        path = write(tmp_path, "m.py", "def f(items=[]):\n    return items\n")
        (diag,) = lint_file(path, root=tmp_path, rules=("REP203",))
        assert diag.code == "REP203" and "'f'" in diag.message

    def test_rep301_unregistered_prefix(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "from repro import telemetry\n\n"
            'telemetry.count("warp.drive.engaged")\n',
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP301",))
        assert diag.code == "REP301" and "warp.drive.engaged" in diag.message

    def test_rep301_undotted_name(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            'from repro import telemetry\n\ntelemetry.count("compile")\n',
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP301",))
        assert diag.code == "REP301"

    def test_rep301_fstring_with_literal_prefix_passes(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "from repro import telemetry\n\n"
            "name = 'x'\n"
            'telemetry.count(f"compile.{name}")\n'
            'telemetry.count(f"{name}.seconds")\n',
        )
        (diag,) = lint_file(path, root=tmp_path, rules=("REP301",))
        assert diag.line == 5  # only the prefix-less f-string

    def _code_drift_tree(self, tmp_path, *, emitted, catalogued):
        """A scratch tree with an analysis package and a docs catalog."""
        for i, code in enumerate(emitted):
            write(
                tmp_path,
                f"analysis/emitter{i}.py",
                f'CODE = "{code}"\n',
            )
        write(
            tmp_path,
            "docs/analysis.md",
            "\n".join(f"**{code} — some rule** (error). Prose." for code in catalogued)
            + "\n",
        )
        return write(tmp_path, "analysis/diagnostics.py", '"""Anchor."""\n')

    def test_rep302_emitted_but_uncatalogued(self, tmp_path):
        anchor = self._code_drift_tree(
            tmp_path, emitted=["NCK401", "NCK101"], catalogued=["NCK101"]
        )
        (diag,) = lint_file(anchor, root=tmp_path, rules=("REP302",))
        assert diag.code == "REP302" and diag.obj == "NCK401"
        assert "no rule-catalog entry" in diag.message

    def test_rep302_catalogued_but_unemitted(self, tmp_path):
        anchor = self._code_drift_tree(
            tmp_path, emitted=["NCK101"], catalogued=["NCK101", "REP999"]
        )
        (diag,) = lint_file(anchor, root=tmp_path, rules=("REP302",))
        assert diag.obj == "REP999"
        assert "never emitted" in diag.message

    def test_rep302_prose_mentions_are_not_emissions(self, tmp_path):
        # A code inside a longer string (docstring prose) is not an
        # emission; only whole-string literals count.
        write(
            tmp_path,
            "analysis/prose.py",
            '"""Mentions NCK999 in passing."""\n',
        )
        write(tmp_path, "docs/analysis.md", "**NCK101 — rule**\n")
        anchor = write(
            tmp_path, "analysis/diagnostics.py", 'CODE = "NCK101"\n'
        )
        assert lint_file(anchor, root=tmp_path, rules=("REP302",)) == []

    def test_rep302_reports_skip_without_docs_tree(self, tmp_path):
        anchor = write(tmp_path, "analysis/diagnostics.py", 'CODE = "NCK999"\n')
        (diag,) = lint_file(anchor, root=tmp_path, rules=("REP302",))
        assert diag.code == "REP302"
        assert diag.severity == Severity.INFO
        assert "catalog check skipped" in diag.message
        assert "docs/analysis.md not found" in diag.message
        # Info severity: the skip is visible but never gates the exit code.
        assert exit_code([diag]) == 0

    def test_rep302_only_fires_on_the_anchor_module(self, tmp_path):
        write(tmp_path, "docs/analysis.md", "**REP999 — stale**\n")
        other = write(tmp_path, "analysis/other.py", "x = 1\n")
        assert lint_file(other, root=tmp_path, rules=("REP302",)) == []

    def test_rep401_drift_both_ways(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            '__all__ = ["ghost"]\n\n\ndef visible():\n    pass\n',
        )
        diags = lint_file(path, root=tmp_path, rules=("REP401",))
        assert codes(diags) == ["REP401", "REP401"]
        messages = " | ".join(d.message for d in diags)
        assert "ghost" in messages and "visible" in messages

    def test_rep401_silent_without_all(self, tmp_path):
        path = write(tmp_path, "m.py", "def visible():\n    pass\n")
        assert lint_file(path, root=tmp_path, rules=("REP401",)) == []


class TestSuppression:
    def test_noqa_with_code(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "try:\n    x = 1\nexcept:  # nck: noqa[REP202]\n    pass\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "def f(items=[]):  # nck: noqa\n    return items\n",
        )
        assert lint_file(path, root=tmp_path) == []

    def test_noqa_for_a_different_code_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "def f(items=[]):  # nck: noqa[REP202]\n    return items\n",
        )
        assert codes(lint_file(path, root=tmp_path)) == ["REP203"]


class TestReporting:
    def fixture_diags(self, tmp_path):
        path = write(
            tmp_path,
            "m.py",
            "def f(items=[]):\n    return items\n",
        )
        return lint_file(path, root=tmp_path)

    def test_render_text_line_format(self, tmp_path):
        text = render_text(self.fixture_diags(tmp_path))
        assert "m.py:1: warning REP203" in text
        assert "0 errors, 1 warning, 0 info" in text

    def test_render_text_gate(self, tmp_path):
        text = render_text(self.fixture_diags(tmp_path), minimum=Severity.ERROR)
        assert text == "clean (no findings at or above error)"

    def test_render_json_envelope(self, tmp_path):
        payload = json.loads(render_json(self.fixture_diags(tmp_path)))
        assert payload["version"] == 1
        assert payload["summary"] == {"error": 0, "warning": 1, "info": 0}
        (entry,) = payload["diagnostics"]
        assert entry["code"] == "REP203"
        assert entry["severity"] == "warning"
        assert entry["file"] == "m.py" and entry["line"] == 1

    def test_exit_codes(self, tmp_path):
        warn = self.fixture_diags(tmp_path)
        assert exit_code([]) == 0
        assert exit_code(warn) == 1
        err = write(tmp_path, "core/env.py", "def public():\n    pass\n")
        assert exit_code(lint_file(err, root=tmp_path)) == 2


def _annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation reads, including inside quoted forward refs."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read if it is loaded anywhere, appears in an
    annotation (quoted or not), or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


class TestSelfLint:
    """The acceptance gate: the shipped package lints clean."""

    def test_package_is_clean(self):
        diags = lint_package()
        assert diags == [], [d.render() for d in diags]

    def test_registry_covers_the_documented_codes(self):
        assert set(CODE_RULES) == {
            "REP101", "REP102", "REP201", "REP202", "REP203", "REP301",
            "REP302", "REP401",
        }

    def test_scoped_module_lists_point_at_real_files(self):
        from repro.analysis.codelint import package_root

        root = package_root()
        for rel in DOCSTRING_MODULES:
            assert (root / rel).is_file(), rel
        for rel, _ in PARAM_COVERAGE:
            assert (root / rel).is_file(), rel

    def test_no_unused_imports(self):
        """Every non-``__init__`` module reads each name it imports."""
        from repro.analysis.codelint import package_root

        fixture = (
            "from typing import TYPE_CHECKING, Mapping\n"
            "import os.path\n"
            "from .a import Exported, Quoted, Unread\n"
            "__all__ = ['Exported']\n"
            "def f(x: 'Quoted') -> 'list[int]':\n"
            "    return os.path.join(x)\n"
        )
        assert unused_imports(fixture) == [
            "TYPE_CHECKING (line 1)", "Mapping (line 1)", "Unread (line 3)",
        ]
        root = package_root()
        found = {
            str(path.relative_to(root)): unused
            for path in sorted(root.rglob("*.py"))
            if path.name != "__init__.py"
            and (unused := unused_imports(path.read_text()))
        }
        assert found == {}


class TestTelemetryNamingRegistry:
    def test_known_prefixes(self):
        assert KNOWN_SPAN_PREFIXES == {
            "compile", "anneal", "circuit", "classical", "runtime",
            "service", "experiments", "analysis",
        }

    @pytest.mark.parametrize(
        "name", ["compile.program", "anneal.embed.attempts", "runtime.solve"]
    )
    def test_canonical_names(self, name):
        assert is_canonical_name(name)

    @pytest.mark.parametrize(
        "name", ["compile", "Compile.program", "warp.drive", "compile..x", ""]
    )
    def test_non_canonical_names(self, name):
        assert not is_canonical_name(name)
