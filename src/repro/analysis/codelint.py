"""The codebase lint engine: AST rules over the ``repro`` package.

This generalizes the docstring audit that originally lived inside
``tests/test_docstrings.py`` into a rule-registry engine sharing the
:class:`~repro.analysis.diagnostics.Diagnostic` model with the program
linter.  Each rule is a visitor over one parsed module:

=======  ========  =====================================================
code     severity  finding
=======  ========  =====================================================
REP101   error     missing docstring on a public module/class/function
                   (scope: :data:`DOCSTRING_MODULES`)
REP102   error     an entry-point docstring fails to mention a parameter
                   by name (scope: :data:`PARAM_COVERAGE`)
REP201   warning   unseeded randomness — stdlib ``random.*`` calls,
                   legacy ``numpy.random.*`` globals, or a zero-argument
                   ``default_rng()``
REP202   warning   naked ``except:`` clause
REP203   warning   mutable default argument (list/dict/set literal or
                   constructor)
REP301   error     telemetry span/metric name outside the declared
                   :data:`~repro.telemetry.naming.KNOWN_SPAN_PREFIXES`
                   registry or violating ``<subsystem>.<event>`` form
REP302   error     diagnostic-code drift — a ``NCK###``/``REP###`` code
                   emitted from ``repro.analysis`` with no catalog entry
                   in ``docs/analysis.md``, or a catalogued code that is
                   never emitted
REP401   error     ``__all__`` drift — listed names that are unbound, or
                   public module-level definitions left unlisted
=======  ========  =====================================================

Suppression uses ``# nck: noqa`` (everything) or ``# nck: noqa[REP201]``
/ ``# nck: noqa[REP201,REP301]`` (specific codes) on the flagged line.
``python -m repro lint --self`` runs every rule over the installed
package, one file at a time; ``make lint`` wires it into CI.  The rule
catalog with worked examples lives in ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..telemetry.naming import KNOWN_SPAN_PREFIXES, is_canonical_name
from .diagnostics import Diagnostic, RuleInfo, Severity

#: Modules whose whole public surface must carry docstrings (REP101).
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
    "compile/encodings.py",
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
    "analysis/codelint.py",
    "analysis/report.py",
    "analysis/cli.py",
    "analysis/certify.py",
    "analysis/encodings.py",
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
#: every named parameter (REP102) — the failure mode REP101 cannot see
#: is a docstring predating a newly added keyword.
PARAM_COVERAGE: tuple[tuple[str, str], ...] = (
    ("core/env.py", "Env.nck"),
    ("core/env.py", "Env.solve"),
    ("core/env.py", "Env.to_qubo"),
    ("compile/program.py", "compile_program"),
    ("compile/program.py", "compile_constraint"),
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
    ("analysis/codelint.py", "lint_file"),
    ("analysis/certify.py", "certify_program"),
    ("analysis/certify.py", "check_energy"),
    ("service/admission.py", "AdmissionController.admit"),
    ("service/service.py", "SolveService.solve"),
)

_NOQA = re.compile(r"#\s*nck:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")

_TELEMETRY_CALLS = frozenset({"span", "count", "gauge", "observe"})

#: ``numpy.random`` callables that are *seeded constructors* (fine with
#: an argument, flagged only when called bare), as opposed to the legacy
#: global-state API which REP201 flags unconditionally.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "SFC64"}
)

_NUMPY_LEGACY_HINT = (
    "use a seeded np.random.default_rng(seed) Generator threaded from the "
    "caller"
)


@dataclass
class ModuleUnderLint:
    """One parsed source module handed to every code-lint rule.

    ``relpath`` is the path relative to the lint root (the key the
    scoped rules match against); ``display_path`` is the root-qualified
    path used in report locations (``repro/core/env.py`` for the real
    package); ``tree`` the parsed AST; ``lines`` the raw source lines
    for suppression scanning.
    """

    path: pathlib.Path
    relpath: str
    display_path: str
    tree: ast.Module
    lines: list[str]

    def numpy_aliases(self) -> set[str]:
        """Module-level names bound to the ``numpy`` package."""
        aliases = set()
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        return aliases

    def imports_stdlib_random(self) -> bool:
        """Whether the module imports the stdlib ``random`` module."""
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                if any((a.asname or a.name) == "random" for a in node.names):
                    return True
        return False


CODE_RULES: dict[str, RuleInfo] = {}


def _rule(code: str, name: str, severity: Severity, summary: str):
    """Register a code-lint rule under ``code``."""

    def register(fn: Callable[[ModuleUnderLint], Iterator[Diagnostic]]):
        CODE_RULES[code] = RuleInfo(
            code=code, name=name, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _diag(
    module: ModuleUnderLint,
    code: str,
    severity: Severity,
    message: str,
    *,
    line: int | None = None,
    column: int | None = None,
    obj: str | None = None,
    hint: str | None = None,
) -> Diagnostic:
    """Shorthand for a codelint-sourced diagnostic."""
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        source="codelint",
        file=module.display_path,
        line=line,
        column=column,
        obj=obj,
        hint=hint,
    )


def _public_defs(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(qualname, node)`` for public defs at module/class level."""

    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name.startswith("_"):
                    continue
                qual = f"{prefix}{child.name}"
                yield qual, child
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, qual + ".")

    yield from visit(tree, "")


def _named_defs(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Yield every def (public or dunder) with its qualname."""

    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, qual + ".")

    yield from visit(tree, "")


@_rule(
    "REP101",
    "missing-docstring",
    Severity.ERROR,
    "public module/class/function without a docstring",
)
def _check_docstrings(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP101: docstring presence over :data:`DOCSTRING_MODULES`."""
    if module.relpath not in DOCSTRING_MODULES:
        return
    if not (ast.get_docstring(module.tree) or "").strip():
        yield _diag(
            module,
            "REP101",
            Severity.ERROR,
            "missing module docstring",
            line=1,
            obj="<module>",
            hint="state what the module is for in one leading paragraph",
        )
    for qual, node in _public_defs(module.tree):
        if not (ast.get_docstring(node) or "").strip():
            yield _diag(
                module,
                "REP101",
                Severity.ERROR,
                f"public definition {qual!r} has no docstring",
                line=node.lineno,
                obj=qual,
                hint="document it or rename it with a leading underscore",
            )


@_rule(
    "REP102",
    "undocumented-parameter",
    Severity.ERROR,
    "entry-point docstring does not mention a parameter by name",
)
def _check_param_coverage(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP102: parameter coverage over :data:`PARAM_COVERAGE`."""
    wanted = {
        qual for rel, qual in PARAM_COVERAGE if rel == module.relpath
    }
    if not wanted:
        return
    for qual, node in _named_defs(module.tree):
        if qual not in wanted:
            continue
        wanted.discard(qual)
        doc = ast.get_docstring(node) or ""
        if not doc.strip():
            yield _diag(
                module,
                "REP102",
                Severity.ERROR,
                f"entry point {qual!r} has no docstring",
                line=node.lineno,
                obj=qual,
            )
            continue
        args = node.args
        names = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg not in ("self", "cls")
        ]
        missing = [name for name in names if name not in doc]
        if missing:
            yield _diag(
                module,
                "REP102",
                Severity.ERROR,
                f"docstring of {qual!r} does not mention parameters "
                f"{missing}",
                line=node.lineno,
                obj=qual,
                hint="document them, including defaults and semantics",
            )
    for qual in sorted(wanted):
        yield _diag(
            module,
            "REP102",
            Severity.ERROR,
            f"entry point {qual!r} listed in PARAM_COVERAGE was not found",
            line=1,
            obj=qual,
            hint="update repro.analysis.codelint.PARAM_COVERAGE",
        )


def _attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


@_rule(
    "REP201",
    "unseeded-randomness",
    Severity.WARNING,
    "global or unseeded RNG use breaks run reproducibility",
)
def _check_unseeded_random(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP201: stdlib ``random``, legacy numpy globals, bare default_rng."""
    numpy_names = module.numpy_aliases()
    stdlib_random = module.imports_stdlib_random()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain is None:
            continue
        if stdlib_random and chain[0] == "random" and len(chain) == 2:
            yield _diag(
                module,
                "REP201",
                Severity.WARNING,
                f"call to stdlib 'random.{chain[1]}' uses the global, "
                "unseeded RNG",
                line=node.lineno,
                column=node.col_offset,
                hint=_NUMPY_LEGACY_HINT,
            )
        elif chain[0] in numpy_names and len(chain) >= 3 and chain[1] == "random":
            fn = chain[-1]
            if fn in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield _diag(
                        module,
                        "REP201",
                        Severity.WARNING,
                        f"{fn}() without a seed draws fresh OS entropy "
                        "every call",
                        line=node.lineno,
                        column=node.col_offset,
                        hint="thread a seed or Generator from the caller; "
                        "suppress with '# nck: noqa[REP201]' where fresh "
                        "entropy is the intended fallback",
                    )
            else:
                yield _diag(
                    module,
                    "REP201",
                    Severity.WARNING,
                    f"legacy 'numpy.random.{fn}' call uses the global numpy "
                    "RNG state",
                    line=node.lineno,
                    column=node.col_offset,
                    hint=_NUMPY_LEGACY_HINT,
                )


@_rule(
    "REP202",
    "naked-except",
    Severity.WARNING,
    "bare except: swallows SystemExit/KeyboardInterrupt",
)
def _check_naked_except(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP202: ``except:`` without an exception type."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield _diag(
                module,
                "REP202",
                Severity.WARNING,
                "naked 'except:' catches SystemExit and KeyboardInterrupt",
                line=node.lineno,
                column=node.col_offset,
                hint="catch Exception (or something narrower) instead",
            )


@_rule(
    "REP203",
    "mutable-default-argument",
    Severity.WARNING,
    "list/dict/set default is shared across calls",
)
def _check_mutable_defaults(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP203: mutable literals or constructors as argument defaults."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = [*node.args.defaults, *(d for d in node.args.kw_defaults if d)]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                yield _diag(
                    module,
                    "REP203",
                    Severity.WARNING,
                    f"function {node.name!r} has a mutable default argument",
                    line=default.lineno,
                    column=default.col_offset,
                    obj=node.name,
                    hint="default to None and construct inside the body",
                )


@_rule(
    "REP301",
    "unregistered-telemetry-name",
    Severity.ERROR,
    "span/metric name outside the declared prefix registry",
)
def _check_telemetry_names(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP301: every telemetry name must be ``<subsystem>.<event>`` with
    a subsystem from :data:`~repro.telemetry.naming.KNOWN_SPAN_PREFIXES`."""
    registry = ", ".join(sorted(KNOWN_SPAN_PREFIXES))
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if (
            chain is None
            or len(chain) < 2
            or chain[-1] not in _TELEMETRY_CALLS
            or chain[-2] != "telemetry"
            or not node.args
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            if not is_canonical_name(name):
                yield _diag(
                    module,
                    "REP301",
                    Severity.ERROR,
                    f"telemetry name {name!r} is outside the declared "
                    f"registry ({registry}) or not '<subsystem>.<event>' "
                    "dotted lowercase",
                    line=arg.lineno,
                    column=arg.col_offset,
                    hint="register the prefix in "
                    "repro.telemetry.naming.KNOWN_SPAN_PREFIXES and document "
                    "it in docs/observability.md",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = ""
            for value in arg.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    head += value.value
                else:
                    break
            prefix = head.split(".", 1)[0] if "." in head else None
            if prefix is None or prefix not in KNOWN_SPAN_PREFIXES:
                yield _diag(
                    module,
                    "REP301",
                    Severity.ERROR,
                    f"dynamic telemetry name must start with a literal "
                    f"'<subsystem>.' prefix from the registry ({registry}); "
                    f"got {head!r}",
                    line=arg.lineno,
                    column=arg.col_offset,
                )
        else:
            yield _diag(
                module,
                "REP301",
                Severity.ERROR,
                "telemetry name is not statically checkable; pass a string "
                "literal or an f-string with a literal '<subsystem>.' prefix",
                line=arg.lineno,
                column=arg.col_offset,
            )


#: A whole string literal that *is* a diagnostic code (as passed to the
#: rule registries and ``Diagnostic(code=...)`` constructors), as opposed
#: to prose that merely mentions one.
_CODE_LITERAL = re.compile(r"^(?:NCK|REP)\d{3}$")

#: A bold ``**NCK101 — name**`` rule-catalog entry in ``docs/analysis.md``.
_CATALOG_ENTRY = re.compile(r"\*\*((?:NCK|REP)\d{3})\b")


def _docs_catalog(module: ModuleUnderLint) -> tuple[pathlib.Path, set[str]] | None:
    """Locate ``docs/analysis.md`` above ``module`` and parse its catalog.

    Walks the module's parent directories looking for a ``docs/analysis.md``
    sibling tree (the source checkout layout).  Returns ``None`` when no
    such file exists — e.g. an installed package without the docs tree —
    and REP302 then reports an info-severity "check skipped" finding
    instead of silently passing.
    """
    for parent in module.path.resolve().parents:
        candidate = parent / "docs" / "analysis.md"
        if candidate.is_file():
            return candidate, set(_CATALOG_ENTRY.findall(candidate.read_text()))
    return None


@_rule(
    "REP302",
    "diagnostic-code-drift",
    Severity.ERROR,
    "emitted diagnostic codes disagree with the docs/analysis.md catalog",
)
def _check_code_drift(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP302: emitted diagnostic codes ⇔ the ``docs/analysis.md`` catalog.

    Anchored to ``analysis/diagnostics.py`` (the module defining the
    Diagnostic model) so the check runs exactly once per package lint.
    The *emitted* set is every whole-string ``NCK###``/``REP###``
    literal found in the sibling ``analysis/*.py`` modules — rule
    registrations and ``Diagnostic`` constructions both pass codes as
    bare literals, while prose mentions live inside longer strings and
    never match.  The *catalogued* set is every bold ``**CODE — name**``
    entry in the docs rule catalog.  Drift in either direction is an
    error: an undocumented code ships findings users cannot look up; a
    stale catalog entry documents a rule that no longer exists.
    """
    if module.relpath != "analysis/diagnostics.py":
        return
    found = _docs_catalog(module)
    if found is None:
        # Degrading *silently* here once hid a broken docs checkout for
        # a whole release cycle; say what was skipped and why.
        yield _diag(
            module,
            "REP302",
            Severity.INFO,
            "catalog check skipped: docs/analysis.md not found above the "
            "lint root",
            line=1,
            obj="REP302",
            hint="run the lint from a source checkout (with the docs/ "
            "tree) to enable catalog drift checking",
        )
        return
    docs_path, catalogued = found
    emitted: dict[str, str] = {}
    for sibling in sorted(module.path.parent.glob("*.py")):
        try:
            tree = ast.parse(sibling.read_text(), filename=str(sibling))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _CODE_LITERAL.match(node.value)
            ):
                emitted.setdefault(node.value, sibling.name)
    for code in sorted(set(emitted) - catalogued):
        yield _diag(
            module,
            "REP302",
            Severity.ERROR,
            f"diagnostic code {code!r} is emitted in "
            f"analysis/{emitted[code]} but has no rule-catalog entry in "
            f"{docs_path.name}",
            line=1,
            obj=code,
            hint="add a '**CODE — name**' entry to the docs/analysis.md "
            "rule catalog",
        )
    for code in sorted(catalogued - set(emitted)):
        yield _diag(
            module,
            "REP302",
            Severity.ERROR,
            f"diagnostic code {code!r} is catalogued in {docs_path.name} "
            "but never emitted from repro.analysis",
            line=1,
            obj=code,
            hint="delete the stale catalog entry or restore the rule that "
            "emitted it",
        )


@_rule(
    "REP401",
    "all-drift",
    Severity.ERROR,
    "__all__ disagrees with the module's public definitions",
)
def _check_all_drift(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """REP401: ``__all__`` entries must resolve; public defs must be listed."""
    tree = module.tree
    declared: list[str] | None = None
    decl_line = 1
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                declared = [
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ]
                decl_line = node.lineno
    if declared is None:
        return

    bound: set[str] = set()
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])

    for name in declared:
        if name not in bound:
            yield _diag(
                module,
                "REP401",
                Severity.ERROR,
                f"__all__ lists {name!r} but the module never binds it",
                line=decl_line,
                obj=name,
                hint="remove the stale entry or restore the binding",
            )
    for name, lineno in sorted(defined.items()):
        if not name.startswith("_") and name not in declared:
            yield _diag(
                module,
                "REP401",
                Severity.ERROR,
                f"public definition {name!r} is missing from __all__",
                line=lineno,
                obj=name,
                hint="add it to __all__ or rename it with a leading "
                "underscore",
            )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _suppressed_codes(line: str) -> set[str] | None:
    """Codes a ``# nck: noqa`` comment suppresses; None means no comment.

    An empty set means a bare ``# nck: noqa`` (suppress everything).
    """
    match = _NOQA.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return set()
    return {c.strip().upper() for c in codes.split(",") if c.strip()}


def _apply_suppressions(
    module: ModuleUnderLint, diagnostics: Iterable[Diagnostic]
) -> list[Diagnostic]:
    """Drop diagnostics suppressed by a ``# nck: noqa`` on their line."""
    kept = []
    for diag in diagnostics:
        if diag.line is not None and 1 <= diag.line <= len(module.lines):
            codes = _suppressed_codes(module.lines[diag.line - 1])
            if codes is not None and (not codes or diag.code in codes):
                continue
        kept.append(diag)
    return kept


def package_root() -> pathlib.Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def _locate(
    path: pathlib.Path, root: pathlib.Path
) -> tuple[str, str]:
    """``(relpath, display_path)`` of ``path`` under the lint ``root``.

    Report locations are qualified with the package name when linting
    the real package; ad-hoc roots (tests, scratch trees) show bare
    paths.
    """
    try:
        relpath = path.resolve().relative_to(root).as_posix()
    except ValueError:
        relpath = path.name
    display = f"{root.name}/{relpath}" if root.name == "repro" else relpath
    return relpath, display


def _load_module(path: pathlib.Path, root: pathlib.Path) -> ModuleUnderLint:
    """Read and parse ``path`` into a :class:`ModuleUnderLint`."""
    relpath, display = _locate(path, root)
    text = path.read_text()
    return ModuleUnderLint(
        path=path,
        relpath=relpath,
        display_path=display,
        tree=ast.parse(text, filename=str(path)),
        lines=text.splitlines(),
    )


def lint_file(
    path: pathlib.Path | str,
    *,
    root: pathlib.Path | None = None,
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint one source file and return its diagnostics, report-sorted.

    Parameters
    ----------
    path:
        The file to lint.
    root:
        Package root the scoped rules (REP101/REP102) resolve relative
        paths against; defaults to the installed ``repro`` package.
    rules:
        Rule codes to run (default: every registered rule).
    """
    root = (root or package_root()).resolve()
    module = _load_module(pathlib.Path(path), root)
    selected = set(rules) if rules is not None else set(CODE_RULES)
    diagnostics: list[Diagnostic] = []
    for code, info in CODE_RULES.items():
        if code in selected:
            diagnostics.extend(info.check(module))
    return sorted(_apply_suppressions(module, diagnostics), key=Diagnostic.sort_key)


def lint_package(
    root: pathlib.Path | None = None,
    *,
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint every ``*.py`` file under ``root`` (default: ``repro``).

    ``rules`` restricts the run to specific codes, as in
    :func:`lint_file`.  Returns every file's diagnostics, report-sorted.
    """
    root = (root or package_root()).resolve()
    diagnostics: list[Diagnostic] = []
    for path in sorted(root.rglob("*.py")):
        diagnostics.extend(lint_file(path, root=root, rules=rules))
    return sorted(diagnostics, key=Diagnostic.sort_key)
