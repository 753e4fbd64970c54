"""The package's own hygiene rules, as plain AST checks over ``src/repro``.

Each check takes a module's path relative to the package root and its
parsed tree, and returns ``(line, message)`` for every offence.
``test_module_is_clean`` runs every check over each module of the
imported ``repro`` package, one test ID per module; ``test_check_fires``
hands each check a minimal offending module, so a check that stops
firing fails as well.
``test_catalog_matches_docs`` holds the diagnostic codes the analyzers
emit to the rule catalog in ``docs/analysis.md``.

To watch a rule fire on the real tree, break a scratch copy of the
repository (add ``except:`` to a module, or delete a catalog entry from
its ``docs/analysis.md``) and run this file from the copy with the
copy's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

import repro
from repro.telemetry.naming import KNOWN_SPAN_PREFIXES, is_canonical_name

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parent.parent

#: Modules whose whole public surface must carry docstrings.
#: This is the load-bearing API surface; adding a module here is the
#: one-line step that puts it under docstring enforcement.
DOCSTRING_MODULES: tuple[str, ...] = (
    "telemetry/__init__.py",
    "telemetry/naming.py",
    "telemetry/recorder.py",
    "telemetry/export.py",
    "core/env.py",
    "core/solution.py",
    "compile/program.py",
    "compile/cache.py",
    "compile/pipeline/__init__.py",
    "compile/pipeline/base.py",
    "compile/pipeline/canonicalize.py",
    "compile/pipeline/store.py",
    "compile/pipeline/synthesis.py",
    "compile/pipeline/assemble.py",
    "annealing/device.py",
    "circuit/device.py",
    "classical/nck_solver.py",
    "problems/base.py",
    "runtime/__init__.py",
    "runtime/backends.py",
    "runtime/executor.py",
    "runtime/policy.py",
    "runtime/records.py",
    "runtime/strategy.py",
    "analysis/__init__.py",
    "analysis/diagnostics.py",
    "analysis/program.py",
    "analysis/report.py",
    "analysis/cli.py",
    "analysis/certify.py",
    "service/__init__.py",
    "service/config.py",
    "service/admission.py",
    "service/cache.py",
    "service/jobs.py",
    "service/scheduler.py",
    "service/service.py",
    "service/worker.py",
    "service/client.py",
    "store.py",
    "__main__.py",
)

#: ``(module, qualname)`` entry points whose docstrings must mention
#: every named parameter — the failure mode the docstring check cannot
#: see is a docstring predating a newly added keyword.
PARAM_COVERAGE: tuple[tuple[str, str], ...] = (
    ("core/env.py", "Env.nck"),
    ("core/env.py", "Env.solve"),
    ("core/env.py", "Env.to_qubo"),
    ("compile/program.py", "compile_program"),
    ("annealing/device.py", "AnnealingDevice.__init__"),
    ("annealing/device.py", "AnnealingDevice.sample"),
    ("annealing/sampler.py", "SimulatedAnnealingSampler.sample"),
    ("circuit/device.py", "CircuitDevice.__init__"),
    ("circuit/device.py", "CircuitDevice.sample"),
    ("classical/nck_solver.py", "ExactNckSolver.solve"),
    ("runtime/executor.py", "solve"),
    ("telemetry/recorder.py", "span"),
    ("telemetry/recorder.py", "count"),
    ("telemetry/recorder.py", "gauge"),
    ("telemetry/recorder.py", "observe"),
    ("telemetry/recorder.py", "enable"),
    ("analysis/program.py", "lint_program"),
    ("analysis/certify.py", "certify_program"),
    ("analysis/certify.py", "check_energy"),
    ("service/admission.py", "AdmissionController.admit"),
    ("service/service.py", "SolveService.solve"),
)

#: Modules allowed exactly one bare ``np.random.default_rng()``: the
#: ``rng or np.random.default_rng()`` fallback, where fresh entropy is
#: intended when the caller passes no generator.
BARE_DEFAULT_RNG = frozenset(
    {
        "annealing/device.py",
        "annealing/embedding.py",
        "annealing/sampler.py",
        "circuit/device.py",
        "circuit/qaoa.py",
        "problems/exact_cover.py",
        "problems/ksat.py",
    }
)

#: ``numpy.random`` constructors that are seeded when given an argument,
#: as opposed to the legacy global-state functions.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "SFC64"}
)

_TELEMETRY_CALLS = frozenset({"span", "count", "gauge", "observe"})

#: A diagnostic code as a whole string literal (how rule registries and
#: ``Diagnostic(code=...)`` take it); prose that mentions one never matches.
_CODE = re.compile(r"(?:NCK|REP)\d{3}")

#: A bold ``**NCK101 — name**`` rule-catalog entry in ``docs/analysis.md``.
_CATALOG_ENTRY = re.compile(r"\*\*((?:NCK|REP)\d{3})\b")


def _defs(tree: ast.AST, *, public_only: bool):
    """Yield ``(qualname, node)`` for each def at module and class level."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if public_only and child.name.startswith("_"):
                continue
            yield child.name, child
            if isinstance(child, ast.ClassDef):
                for qual, node in _defs(child, public_only=public_only):
                    yield f"{child.name}.{qual}", node


def _chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *reversed(parts)]
    return None


def docstrings(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """A DOCSTRING_MODULES module and its public defs have docstrings."""
    if relpath not in DOCSTRING_MODULES:
        return []
    found = []
    if not (ast.get_docstring(tree) or "").strip():
        found.append((1, "missing module docstring"))
    for qual, node in _defs(tree, public_only=True):
        if not (ast.get_docstring(node) or "").strip():
            found.append((node.lineno, f"public {qual!r} has no docstring"))
    return found


def param_coverage(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """A PARAM_COVERAGE entry point's docstring names every parameter."""
    wanted = {qual for rel, qual in PARAM_COVERAGE if rel == relpath}
    found = []
    for qual, node in _defs(tree, public_only=False):
        if qual not in wanted:
            continue
        wanted.discard(qual)
        doc = ast.get_docstring(node) or ""
        args = node.args
        missing = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg not in ("self", "cls") and a.arg not in doc
        ]
        if not doc.strip():
            found.append((node.lineno, f"entry point {qual!r} has no docstring"))
        elif missing:
            found.append((node.lineno, f"docstring of {qual!r} omits {missing}"))
    found += [(1, f"entry point {qual!r} not found") for qual in sorted(wanted)]
    return found


def seeded_randomness(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """No stdlib ``random.*`` or legacy ``numpy.random.*`` call, and no
    seeded constructor called bare beyond a BARE_DEFAULT_RNG module's one
    ``default_rng()`` fallback."""
    imports = [a for n in tree.body if isinstance(n, ast.Import) for a in n.names]
    numpy = {a.asname or a.name for a in imports if a.name == "numpy"}
    stdlib_random = any((a.asname or a.name) == "random" for a in imports)
    found, fallbacks = [], []
    for node in ast.walk(tree):
        chain = _chain(node.func) if isinstance(node, ast.Call) else None
        if chain is None:
            continue
        if stdlib_random and chain[0] == "random" and len(chain) == 2:
            found.append((node.lineno, f"random.{chain[1]} uses the global RNG"))
        elif chain[0] in numpy and len(chain) >= 3 and chain[1] == "random":
            name = chain[-1]
            if name not in _SEEDED_CONSTRUCTORS:
                found.append((node.lineno, f"numpy.random.{name} uses the global RNG"))
            elif node.args or node.keywords:
                continue
            elif name == "default_rng":
                fallbacks.append((node.lineno, "default_rng() without a seed"))
            else:
                found.append((node.lineno, f"{name}() without a seed"))
    allowed = 1 if relpath in BARE_DEFAULT_RNG else 0
    if len(fallbacks) > allowed:
        found += fallbacks
    elif len(fallbacks) < allowed:
        found.append((1, "BARE_DEFAULT_RNG allows a default_rng() fallback it lacks"))
    return found


def naked_except(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """No bare ``except:``, which catches SystemExit and KeyboardInterrupt."""
    return [
        (node.lineno, "naked 'except:'")
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def mutable_defaults(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """No list/dict/set default, which every call would share."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for default in (*node.args.defaults, *filter(None, node.args.kw_defaults)):
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                found.append((default.lineno, f"{node.name!r} has a mutable default"))
    return found


def telemetry_names(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """Every ``telemetry.span/count/gauge/observe`` name is a dotted
    lowercase ``<subsystem>.<event>`` with a KNOWN_SPAN_PREFIXES subsystem;
    an f-string name starts with a literal registered ``<subsystem>.``."""
    found = []
    for node in ast.walk(tree):
        chain = _chain(node.func) if isinstance(node, ast.Call) else None
        if (
            chain is None
            or chain[-2:-1] != ["telemetry"]
            or chain[-1] not in _TELEMETRY_CALLS
            or not node.args
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not is_canonical_name(arg.value):
                found.append((arg.lineno, f"telemetry name {arg.value!r} unregistered"))
        elif isinstance(arg, ast.JoinedStr):
            head = ""
            for value in arg.values:
                if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                    break
                head += value.value
            prefix, dot, _ = head.partition(".")
            if not dot or prefix not in KNOWN_SPAN_PREFIXES:
                found.append((arg.lineno, f"f-string name starts {head!r}"))
        else:
            found.append((arg.lineno, "telemetry name is not a literal or f-string"))
    return found


def all_drift(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """``__all__`` lists only bound names, and every public module-level def."""
    declared = None
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            declared = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
            declared_at = node.lineno
    if declared is None:
        return []
    bound: set[str] = set()
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    found = [
        (declared_at, f"__all__ lists unbound {name!r}")
        for name in declared
        if name not in bound
    ]
    found += [
        (line, f"public {name!r} missing from __all__")
        for name, line in sorted(defined.items())
        if not name.startswith("_") and name not in declared
    ]
    return found


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


def unused_imports(relpath: str, tree: ast.Module) -> list[tuple[int, str]]:
    """A module other than a package ``__init__`` reads each name it
    imports: loaded anywhere, in an annotation (quoted or not), or listed
    in ``__all__``."""
    if relpath.endswith("__init__.py"):
        return []
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
    return [
        (line, f"{name!r} imported, never read")
        for name, line in imported.items()
        if name not in read
    ]


def catalog_drift(trees: list[ast.Module], catalog: str) -> list[str]:
    """Codes emitted as whole string literals in ``trees`` against the
    bold entries of ``catalog``, both ways: an uncatalogued code ships
    findings nobody can look up, a stale entry documents a dead rule."""
    emitted = {
        node.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _CODE.fullmatch(node.value)
    }
    catalogued = set(_CATALOG_ENTRY.findall(catalog))
    return [f"{code} is emitted but not catalogued" for code in sorted(emitted - catalogued)] + [
        f"{code} is catalogued but never emitted" for code in sorted(catalogued - emitted)
    ]


CHECKS = (
    docstrings,
    param_coverage,
    seeded_randomness,
    naked_except,
    mutable_defaults,
    telemetry_names,
    all_drift,
    unused_imports,
)


#: Every module of the package, by path relative to it.
MODULES: tuple[str, ...] = tuple(
    sorted(path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py"))
)


@pytest.fixture(scope="module")
def modules() -> dict[str, ast.Module]:
    """Every module of the package, parsed once, by path relative to it."""
    return {
        relpath: ast.parse((PACKAGE / relpath).read_text(), relpath) for relpath in MODULES
    }


@pytest.mark.parametrize("relpath", MODULES)
def test_module_is_clean(relpath, modules):
    found = [
        f"{relpath}:{line}: {check.__name__}: {message}"
        for check in CHECKS
        for line, message in check(relpath, modules[relpath])
    ]
    assert found == []


def test_scoped_lists_name_real_modules(modules):
    scoped = {*DOCSTRING_MODULES, *(rel for rel, _ in PARAM_COVERAGE), *BARE_DEFAULT_RNG}
    assert scoped - set(modules) == set()


def test_catalog_matches_docs(modules):
    analysis = [tree for relpath, tree in modules.items() if relpath.startswith("analysis/")]
    assert catalog_drift(analysis, (REPO / "docs" / "analysis.md").read_text()) == []


_UNUSED = (
    "from typing import TYPE_CHECKING, Mapping\n"
    "import os.path\n"
    "from .a import Exported, Quoted, Unread\n"
    "__all__ = ['Exported']\n"
    "def f(x: 'Quoted') -> 'list[int]':\n"
    "    return os.path.join(x)\n"
)


@pytest.mark.parametrize(
    "check, relpath, source, lines",
    [
        pytest.param(
            docstrings, "core/env.py", "def public():\n    pass\n", [1, 1],
            id="docstrings",
        ),
        pytest.param(
            param_coverage,
            "classical/nck_solver.py",
            '"""M."""\nclass ExactNckSolver:\n    """C."""\n'
            "    def solve(self, env, timeout=None):\n"
            '        """Solve env exactly."""\n',
            [4],
            id="param_coverage",
        ),
        pytest.param(
            param_coverage, "classical/nck_solver.py", '"""M."""\n', [1],
            id="param_coverage-entry-point-gone",
        ),
        pytest.param(
            seeded_randomness, "m.py", "import random\n\nx = random.randint(0, 3)\n", [3],
            id="seeded_randomness-stdlib",
        ),
        pytest.param(
            seeded_randomness,
            "m.py",
            "import numpy as np\n\n"
            "x = np.random.rand(3)\n"
            "ok = np.random.default_rng(7)\n"
            "ss = np.random.SeedSequence(42)\n"
            "bad = np.random.default_rng()\n",
            [3, 6],
            id="seeded_randomness-numpy",
        ),
        pytest.param(
            seeded_randomness,
            "circuit/qaoa.py",
            "import numpy as np\n\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n",
            [3, 4],
            id="seeded_randomness-second-fallback",
        ),
        pytest.param(
            seeded_randomness, "circuit/qaoa.py", "import numpy as np\n", [1],
            id="seeded_randomness-fallback-gone",
        ),
        pytest.param(
            naked_except, "m.py", "try:\n    x = 1\nexcept:\n    pass\n", [3],
            id="naked_except",
        ),
        pytest.param(
            mutable_defaults, "m.py", "def f(items=[], *, seen=set()):\n    pass\n", [1, 1],
            id="mutable_defaults",
        ),
        pytest.param(
            telemetry_names,
            "m.py",
            "from repro import telemetry\n\n"
            'telemetry.count("warp.drive")\n'
            'telemetry.count("compile")\n'
            'name = "x"\n'
            'telemetry.count(f"compile.{name}")\n'
            'telemetry.count(f"{name}.seconds")\n'
            "telemetry.count(name)\n",
            [3, 4, 7, 8],
            id="telemetry_names",
        ),
        pytest.param(
            all_drift, "m.py", '__all__ = ["ghost"]\n\n\ndef visible():\n    pass\n', [1, 4],
            id="all_drift",
        ),
        pytest.param(unused_imports, "m.py", _UNUSED, [1, 1, 3], id="unused_imports"),
    ],
)
def test_check_fires(check, relpath, source, lines):
    assert [line for line, _ in check(relpath, ast.parse(source))] == lines


def test_catalog_drift_fires_both_ways():
    emitter = ast.parse('CODE = "NCK999"\nOTHER = "NCK101"\n"""Mentions NCK998."""\n')
    catalog = "**NCK101 — rule** (error).\n**REP201 — stale** (warning).\n"
    assert catalog_drift([emitter], catalog) == [
        "NCK999 is emitted but not catalogued",
        "REP201 is catalogued but never emitted",
    ]
