"""Semantic pre-compile lint for NchooseK programs.

:func:`lint_program` inspects an :class:`~repro.core.env.Env` *before*
any synthesis money is spent and reports the degeneracies that are
statically detectable from the constraint list alone:

=======  ========  =====================================================
code     severity  finding
=======  ========  =====================================================
NCK101   error*    infeasible constraint — no reachable TRUE-count is in
                   the selection set (*soft: warning — the compiler
                   drops it, it cannot affect the argmin)
NCK102   warning   tautological constraint — every assignment satisfies
                   it; it compiles to the zero QUBO
NCK103   warning   duplicate or subsumed constraint — an exact repeat,
                   or a hard constraint implied by a stricter one over
                   the same collection
NCK104   warning   unconstrained variable — registered but appearing in
                   no constraint, so backends fix it arbitrarily
NCK201   warning   soft weight under/overflows the hard-penalty gap for
                   the requested ``hard_scale``
NCK301   warning   estimated qubit demand (variables + ancillas) exceeds
                   the given device qubit budget
=======  ========  =====================================================

The compiler pipeline runs this linter as a pre-pass on every
compile; error-severity findings abort compilation before synthesis,
with the message the canonicalize pass raises when run on its own, but
with the full diagnostic list recorded in pass provenance first.  See ``docs/analysis.md`` for the rule catalog with
worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..compile.closed_forms import closed_form_qubo
from ..compile.synthesize import GAP
from ..core.types import Constraint
from .diagnostics import Diagnostic, RuleInfo, Severity, filter_ignored

if TYPE_CHECKING:  # pragma: no cover
    from ..core.env import Env

#: Explicit ``hard_scale`` values more than this factor above the
#: minimum dominating scale trigger the NCK201 overflow warning: the
#: paper's Section VIII-A notes the relative soft-constraint energy gap
#: shrinks as the hard bias grows, degrading noisy-annealer results.
OVERFLOW_FACTOR = 1000.0


@dataclass(frozen=True)
class ProgramLintContext:
    """Inputs shared by every program-lint rule.

    ``env`` is the program under analysis; ``hard_scale`` is the
    caller's explicit override (``None`` means the compiler default,
    which is dominating by construction and never flagged);
    ``qubit_budget`` enables the NCK301 resource check when set.
    """

    env: "Env"
    hard_scale: float | None = None
    qubit_budget: int | None = None


PROGRAM_RULES: dict[str, RuleInfo] = {}


def _rule(code: str, name: str, severity: Severity, summary: str):
    """Register a program-lint rule under ``code``."""

    def register(fn: Callable[[ProgramLintContext], Iterator[Diagnostic]]):
        PROGRAM_RULES[code] = RuleInfo(
            code=code, name=name, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _diag(
    code: str,
    severity: Severity,
    message: str,
    *,
    obj: str,
    hint: str | None = None,
) -> Diagnostic:
    """Shorthand for a program-sourced diagnostic."""
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        source="program",
        obj=obj,
        hint=hint,
    )


def _constraint_label(index: int) -> str:
    """The ``constraint[i]`` location label used by every rule."""
    return f"constraint[{index}]"


@_rule(
    "NCK101",
    "infeasible-constraint",
    Severity.ERROR,
    "no reachable TRUE-count lies in the selection set",
)
def _check_infeasible(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK101: constraints no assignment can satisfy."""
    for index, constraint in enumerate(ctx.env.constraints):
        if not constraint.is_unsatisfiable():
            continue
        if constraint.soft:
            yield _diag(
                "NCK101",
                Severity.WARNING,
                f"soft constraint {constraint!r} is unsatisfiable and will be "
                "dropped by the compiler",
                obj=_constraint_label(index),
                hint="it penalizes every assignment equally; remove it",
            )
        else:
            # Message matches the canonicalize pass's UnsatisfiableError
            # so the pipeline pre-pass aborts with identical wording.
            yield _diag(
                "NCK101",
                Severity.ERROR,
                f"{constraint!r} is unsatisfiable",
                obj=_constraint_label(index),
                hint="no subset sum of the multiplicities reaches the "
                "selection set; fix K or the collection",
            )


@_rule(
    "NCK102",
    "tautological-constraint",
    Severity.WARNING,
    "every assignment satisfies the constraint",
)
def _check_tautological(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK102: constraints that compile to the zero QUBO."""
    for index, constraint in enumerate(ctx.env.constraints):
        if constraint.is_unsatisfiable() or not constraint.is_trivial():
            continue
        role = "soft" if constraint.soft else "hard"
        yield _diag(
            "NCK102",
            Severity.WARNING,
            f"{role} constraint {constraint!r} is tautological: every "
            "reachable TRUE-count is admissible",
            obj=_constraint_label(index),
            hint="it compiles to the zero QUBO; delete it or tighten K",
        )


@_rule(
    "NCK103",
    "duplicate-or-subsumed-constraint",
    Severity.WARNING,
    "exact duplicate, or a hard constraint implied by a stricter one",
)
def _check_duplicate_subsumed(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK103: redundant constraints (duplicates count double energy)."""
    seen: dict[tuple, int] = {}
    by_collection: dict[object, list[tuple[int, Constraint]]] = {}
    for index, constraint in enumerate(ctx.env.constraints):
        key = (constraint.collection, constraint.selection, constraint.soft)
        first = seen.setdefault(key, index)
        if first != index:
            effect = (
                "its satisfaction is counted twice"
                if constraint.soft
                else "its penalty is applied twice"
            )
            yield _diag(
                "NCK103",
                Severity.WARNING,
                f"constraint {constraint!r} duplicates constraint[{first}]; "
                f"{effect}",
                obj=_constraint_label(index),
                hint="remove the repeat (or double a soft weight on purpose "
                "by keeping it)",
            )
            continue
        if not constraint.soft:
            by_collection.setdefault(constraint.collection, []).append(
                (index, constraint)
            )
    for group in by_collection.values():
        if len(group) < 2:
            continue
        for i, weaker in group:
            for j, stricter in group:
                if i == j:
                    continue
                strict_sel = set(stricter.selection.values)
                weak_sel = set(weaker.selection.values)
                if strict_sel < weak_sel:
                    yield _diag(
                        "NCK103",
                        Severity.WARNING,
                        f"hard constraint {weaker!r} is subsumed by the "
                        f"stricter constraint[{j}] {stricter!r} over the same "
                        "collection",
                        obj=_constraint_label(i),
                        hint="the stricter constraint already implies it; "
                        "remove the weaker one",
                    )
                    break


@_rule(
    "NCK104",
    "unconstrained-variable",
    Severity.WARNING,
    "a registered variable appears in no constraint",
)
def _check_unconstrained(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK104: variables whose value every backend picks arbitrarily."""
    used = set()
    for constraint in ctx.env.constraints:
        used.update(constraint.collection.unique)
    for var in ctx.env.variables:
        if var not in used:
            yield _diag(
                "NCK104",
                Severity.WARNING,
                f"variable {var.name!r} appears in no constraint; backends "
                "will assign it arbitrarily",
                obj=f"variable {var.name}",
                hint="constrain it, or drop the registration",
            )


@_rule(
    "NCK201",
    "hard-soft-scale-mismatch",
    Severity.WARNING,
    "explicit hard_scale under- or overshoots the soft energy budget",
)
def _check_scale(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK201: mis-scaled hard/soft balance (Djidjev's failure mode)."""
    if ctx.hard_scale is None:
        return  # The computed default dominates by construction.
    hard = [c for c in ctx.env.hard_constraints if not c.is_trivial()]
    soft = [
        c
        for c in ctx.env.soft_constraints
        if not (c.is_trivial() or c.is_unsatisfiable())
    ]
    if not hard or not soft:
        return
    soft_budget = len(soft) * GAP
    if ctx.hard_scale * GAP <= soft_budget:
        yield _diag(
            "NCK201",
            Severity.WARNING,
            f"hard_scale {ctx.hard_scale:g} does not dominate the total soft "
            f"weight {soft_budget:g}: violating one hard constraint can cost "
            "less than satisfying the soft ones it frees",
            obj="hard_scale",
            hint=f"use hard_scale > {soft_budget:g} (the compiler default is "
            f"{soft_budget / GAP + 1:g})",
        )
    elif ctx.hard_scale > OVERFLOW_FACTOR * (soft_budget / GAP + 1.0):
        yield _diag(
            "NCK201",
            Severity.WARNING,
            f"hard_scale {ctx.hard_scale:g} overshoots the dominating scale "
            f"{soft_budget / GAP + 1:g} by more than {OVERFLOW_FACTOR:g}x, "
            "shrinking the relative soft-constraint energy gap",
            obj="hard_scale",
            hint="large hard biases degrade noisy annealers (Section "
            "VIII-A); scale down toward the default",
        )


def estimate_qubits(env: "Env") -> tuple[int, int]:
    """Estimate ``(variables, ancillas)`` the compiled QUBO will use.

    The ancilla count is a lower-bound estimate mirroring the compiler's
    actual tiers: closed-form encodings report their exact ancilla
    demand (contiguous intervals need ``ceil(log2(span))`` slack bits);
    shapes headed for LP/MILP synthesis are counted at zero ancillas
    since the synthesizer prefers ancilla-free solutions.  Minor
    embedding onto real topologies only increases the total.
    """
    ancillas = 0
    probed: dict[tuple, int] = {}
    for constraint in env.constraints:
        if constraint.soft or constraint.is_unsatisfiable():
            # Exact-penalty (soft) synthesis starts from the ancilla-free
            # LP; unsatisfiable softs are dropped entirely.
            continue
        key = (
            constraint.collection.multiplicities,
            constraint.selection.values,
        )
        count = probed.get(key)
        if count is None:
            probe = iter(range(10**6))
            closed = closed_form_qubo(
                constraint, ancilla_namer=lambda: f"_probe{next(probe)}"
            )
            count = probed[key] = len(closed[1]) if closed is not None else 0
        ancillas += count
    return env.num_variables, ancillas


@_rule(
    "NCK301",
    "qubit-budget-exceeded",
    Severity.WARNING,
    "estimated qubit demand exceeds the device qubit budget",
)
def _check_qubit_budget(ctx: ProgramLintContext) -> Iterator[Diagnostic]:
    """NCK301: programs that cannot fit the target device."""
    if ctx.qubit_budget is None:
        return
    variables, ancillas = estimate_qubits(ctx.env)
    total = variables + ancillas
    if total > ctx.qubit_budget:
        yield _diag(
            "NCK301",
            Severity.WARNING,
            f"estimated {total} qubits ({variables} variables + {ancillas} "
            f"ancillas, before embedding) exceeds the device budget of "
            f"{ctx.qubit_budget}",
            obj="program",
            hint="shrink the instance or target a larger device; embedding "
            "chains only increase the demand",
        )


def lint_program(
    env: "Env",
    *,
    hard_scale: float | None = None,
    qubit_budget: int | None = None,
    ignore: Sequence[str] = (),
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint ``env`` and return the diagnostics, report-sorted.

    Parameters
    ----------
    env:
        The NchooseK program to analyze.
    hard_scale:
        The explicit hard-constraint scale the caller intends to compile
        with, enabling the NCK201 balance check; ``None`` (the compiler
        default) is dominating by construction and never flagged.
    qubit_budget:
        Device qubit count enabling the NCK301 resource check; ``None``
        skips it.
    ignore:
        Rule codes to suppress, e.g. ``("NCK104",)`` — the program-lint
        counterpart of the ``# nck: noqa[CODE]`` source comment.
    rules:
        Run only these rule codes (default: all registered rules).
    """
    ctx = ProgramLintContext(env=env, hard_scale=hard_scale, qubit_budget=qubit_budget)
    selected = set(rules) if rules is not None else set(PROGRAM_RULES)
    diagnostics: list[Diagnostic] = []
    for code, info in PROGRAM_RULES.items():
        if code in selected:
            diagnostics.extend(info.check(ctx))
    diagnostics = filter_ignored(diagnostics, ignore)
    return sorted(diagnostics, key=_program_order(env))


def _program_order(env: "Env") -> Callable[[Diagnostic], tuple]:
    """Sort key: constraint index order first, then code."""

    def key(diag: Diagnostic) -> tuple:
        obj = diag.obj or ""
        if obj.startswith("constraint[") and obj.endswith("]"):
            return (0, int(obj[len("constraint[") : -1]), diag.code)
        return (1, 0, diag.code)

    return key
