"""QUBO coefficient synthesis — the Z3 substitute.

The reference NchooseK implementation hands each constraint's validity
spec to the Z3 SMT solver and asks for QUBO coefficients.  Offline we
solve the same exists/forall problem exactly with linear programming
(no ancillas) or mixed-integer linear programming (with ancillas), via
``scipy.optimize``:

Find coefficients :math:`a_i, b_{ij}` and offset :math:`c` of

.. math:: f(x, y) = c + \\sum a_i z_i + \\sum_{i<j} b_{ij} z_i z_j

over the constraint's unique variables ``x`` and ``k`` ancilla variables
``y`` (``z`` ranges over both) such that, with unit penalty gap,

* for every *valid* assignment ``x``:  :math:`\\min_y f(x, y) = 0`
  (every ancilla row ≥ 0, and at least one row == 0);
* for every *invalid* assignment ``x``: :math:`f(x, y) \\ge 1` for all
  ``y``.

Without ancillas the ∃ part degenerates to equalities and the problem is
a pure LP.  With ancillas, the choice of which ancilla row attains the
minimum is combinatorial; we model it with one binary indicator per
(valid assignment, ancilla row) pair and a big-M linking constraint —
exactly the disjunction Z3 resolves internally.

Exact penalties for soft constraints
------------------------------------
Hard constraints only need invalid assignments *at least* :data:`GAP`
above the valid ones.  Soft constraints are counted — Definition 6
maximizes the number satisfied — so their QUBOs must penalize every
invalid assignment by *exactly* :data:`GAP`, or the summed program QUBO
would weigh a badly-violated constraint more than several mildly-violated
ones (and could even undercut the hard-constraint scale).  Synthesis with
``exact_penalty=True`` adds the equality :math:`\\min_y f(x, y) = 1` on
invalid assignments.  Where no exact-penalty QUBO exists within the
ancilla budget, the compiler falls back to the inequality form and
compensates with a provably sufficient hard-constraint scale
(see :mod:`repro.compile.program`).

Among feasible coefficient vectors we minimize the L1 norm, which drives
the solution toward the sparse, small-integer QUBOs a human would write —
this is what makes the generated-vs-handcrafted comparison of
Section VI-B come out equal for most problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .. import telemetry
from ..core.types import Constraint, ConstraintConversionError
from ..qubo.matrix import enumerate_assignments
from ..qubo.model import QUBO
from .closed_forms import closed_form_qubo
from .truthtable import MAX_UNIQUE_VARIABLES, TruthTable, build_truth_table

#: Coefficient magnitudes are bounded; the paper's hand QUBOs use small
#: integers and bounding keeps annealer dynamic range tame.
COEFFICIENT_BOUND = 24.0

#: Maximum number of ancilla variables tried before giving up.
MAX_ANCILLAS = 3

#: Penalty gap between the valid ground energy and the best invalid energy.
GAP = 1.0


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized per-constraint QUBO.

    ``qubo`` is expressed over the constraint's variable names plus
    ``ancillas`` fresh names; valid assignments sit at energy 0, invalid
    ones at ≥ :data:`GAP` (after minimizing over ancillas) — exactly
    :data:`GAP` when ``exact_penalty`` is True.
    """

    qubo: QUBO
    ancillas: tuple[str, ...]
    used_closed_form: bool
    exact_penalty: bool = False

    def max_energy_upper_bound(self) -> float:
        """Sound upper bound on the QUBO's maximum over binaries.

        Used by the program compiler to size the hard-constraint scale
        when a soft constraint's penalty is not exact.
        """
        ub = self.qubo.offset
        ub += sum(max(a, 0.0) for a in self.qubo.linear.values())
        ub += sum(max(b, 0.0) for b in self.qubo.quadratic.values())
        return ub


def _term_matrix(assignments: np.ndarray) -> np.ndarray:
    """Design matrix mapping coefficient vectors to energies.

    Columns: constant 1, the ``m`` variables, then the ``m(m-1)/2``
    ordered pairs ``(i, j), i<j``.  Row ``r`` evaluates every monomial at
    assignment ``r``, so ``design @ theta`` is the energy vector.
    """
    X = np.asarray(assignments, dtype=float)
    rows, m = X.shape
    cols = [np.ones((rows, 1)), X]
    for i in range(m):
        for j in range(i + 1, m):
            cols.append((X[:, i] * X[:, j])[:, None])
    return np.hstack(cols)


def _theta_to_qubo(theta: np.ndarray, names: list[str], tol: float = 1e-7) -> QUBO:
    """Decode a coefficient vector (constant, linear, pairs) into a QUBO."""
    m = len(names)
    q = QUBO(offset=_snap(theta[0], tol))
    for i in range(m):
        a = _snap(theta[1 + i], tol)
        if a:
            q.add_linear(names[i], a)
    idx = 1 + m
    for i in range(m):
        for j in range(i + 1, m):
            b = _snap(theta[idx], tol)
            if b:
                q.add_quadratic(names[i], names[j], b)
            idx += 1
    return q


def _snap(value: float, tol: float) -> float:
    """Round solver output to the nearest half-integer when very close.

    LP vertices of this feasibility polytope are rational with small
    denominators; snapping removes solver jitter so that caching and
    QUBO-equality comparisons are exact.
    """
    nearest = round(value * 2.0) / 2.0
    return nearest if abs(value - nearest) < tol else value


def _l1_lp(
    design: np.ndarray,
    eq_rows: np.ndarray,
    eq_values: np.ndarray,
    ge_rows: np.ndarray,
    ge_values: np.ndarray,
) -> np.ndarray | None:
    """L1-minimal theta subject to ``design[eq]·θ = v`` and ``≥`` rows."""
    n_theta = design.shape[1]
    n_t = n_theta - 1
    c = np.concatenate([np.zeros(n_theta), np.ones(n_t)])

    A_eq = np.hstack([design[eq_rows], np.zeros((int(eq_rows.sum()), n_t))])
    b_eq = eq_values

    A_ub_rows = []
    b_ub_rows = []
    if ge_rows.any():
        A_ub_rows.append(
            np.hstack([-design[ge_rows], np.zeros((int(ge_rows.sum()), n_t))])
        )
        b_ub_rows.append(-ge_values)
    eye = np.eye(n_theta)[1:]
    A_ub_rows.append(np.hstack([eye, -np.eye(n_t)]))
    b_ub_rows.append(np.zeros(n_t))
    A_ub_rows.append(np.hstack([-eye, -np.eye(n_t)]))
    b_ub_rows.append(np.zeros(n_t))

    res = linprog(
        c,
        A_ub=np.vstack(A_ub_rows),
        b_ub=np.concatenate(b_ub_rows),
        A_eq=A_eq if len(A_eq) else None,
        b_eq=b_eq if len(A_eq) else None,
        bounds=[(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)] * n_theta + [(0, None)] * n_t,
        method="highs",
    )
    return res.x[:n_theta] if res.success else None


def _solve_lp_no_ancilla(table: TruthTable, exact: bool) -> np.ndarray | None:
    """Pure-LP synthesis (no ancillas); returns theta or None if infeasible.

    ``f(valid) == 0``; invalid rows ``>= GAP`` (or ``== GAP`` when
    ``exact``).
    """
    design = _term_matrix(table.assignments)
    invalid = ~table.valid
    if exact:
        eq_rows = np.ones_like(table.valid)
        eq_values = np.where(table.valid, 0.0, GAP)
        return _l1_lp(design, eq_rows, eq_values, np.zeros_like(invalid), np.array([]))
    return _l1_lp(
        design,
        table.valid,
        np.zeros(table.num_valid),
        invalid,
        np.full(int(invalid.sum()), GAP),
    )


def _milp_witnessed(
    design: np.ndarray,
    row_valid: np.ndarray,
    groups: list[np.ndarray],
    group_targets: np.ndarray,
    group_needs_witness: np.ndarray,
) -> np.ndarray | None:
    """Shared MILP core for ancilla synthesis.

    ``design`` has one row per (assignment, ancilla) combination;
    ``groups[i]`` lists the design rows of assignment ``i`` (one per
    ancilla value); ``group_targets[i]`` is that assignment's required
    min-over-ancillas energy; witnesses enforce the ∃ part where
    ``group_needs_witness[i]``.  All rows satisfy ``f ≥ target``.
    """
    n_theta = design.shape[1]
    witness_groups = np.flatnonzero(group_needs_witness)
    rows_per_group = len(groups[0]) if groups else 1
    n_bin = witness_groups.size * rows_per_group
    n_t = n_theta - 1
    big_m = COEFFICIENT_BOUND * n_theta * 2.0 + 2.0 * GAP
    n_var = n_theta + n_bin + n_t

    c = np.zeros(n_var)
    c[n_theta + n_bin :] = 1.0  # minimize L1 of non-constant coefficients

    constraints: list[LinearConstraint] = []

    # 1. Every row's energy ≥ its group's target.
    lower = np.empty(design.shape[0])
    for gi, rows in enumerate(groups):
        lower[rows] = group_targets[gi]
    A = np.zeros((design.shape[0], n_var))
    A[:, :n_theta] = design
    constraints.append(LinearConstraint(A, lower, np.inf))

    # 2. Witness rows: f(x, y) ≤ target + big_m (1 − z).
    if n_bin:
        A2 = np.zeros((n_bin, n_var))
        ub2 = np.empty(n_bin)
        bi = 0
        for wi, gi in enumerate(witness_groups):
            for row in groups[gi]:
                A2[bi, :n_theta] = design[row]
                A2[bi, n_theta + bi] = big_m
                ub2[bi] = group_targets[gi] + big_m
                bi += 1
        constraints.append(LinearConstraint(A2, -np.inf, ub2))

        # 3. At least one witness per group.
        A3 = np.zeros((witness_groups.size, n_var))
        for wi in range(witness_groups.size):
            A3[wi, n_theta + wi * rows_per_group : n_theta + (wi + 1) * rows_per_group] = 1.0
        constraints.append(LinearConstraint(A3, 1.0, np.inf))

    # 4. L1 linking: −t ≤ θ_i ≤ t (i ≥ 1).
    A4 = np.zeros((2 * n_t, n_var))
    A4[:n_t, 1:n_theta] = np.eye(n_t)
    A4[:n_t, n_theta + n_bin :] = -np.eye(n_t)
    A4[n_t:, 1:n_theta] = -np.eye(n_t)
    A4[n_t:, n_theta + n_bin :] = -np.eye(n_t)
    constraints.append(LinearConstraint(A4, -np.inf, 0.0))

    integrality = np.zeros(n_var)
    integrality[n_theta : n_theta + n_bin] = 1
    lb = np.concatenate([np.full(n_theta, -COEFFICIENT_BOUND), np.zeros(n_bin + n_t)])
    ub = np.concatenate(
        [np.full(n_theta, COEFFICIENT_BOUND), np.ones(n_bin), np.full(n_t, np.inf)]
    )
    res = milp(c=c, constraints=constraints, integrality=integrality, bounds=Bounds(lb, ub))
    return res.x[:n_theta] if res.success else None


def _solve_milp_with_ancillas(
    table: TruthTable, k: int, exact: bool
) -> np.ndarray | None:
    """Truth-table MILP synthesis with ``k`` ancilla variables."""
    rows = table.assignments.shape[0]
    anc = enumerate_assignments(k)
    n_anc_rows = anc.shape[0]
    ext = np.hstack(
        [
            np.repeat(table.assignments, n_anc_rows, axis=0),
            np.tile(anc, (rows, 1)),
        ]
    )
    design = _term_matrix(ext)
    groups = [np.arange(r * n_anc_rows, (r + 1) * n_anc_rows) for r in range(rows)]
    targets = np.where(table.valid, 0.0, GAP)
    needs_witness = (
        np.ones(rows, dtype=bool) if exact else table.valid.copy()
    )
    return _milp_witnessed(design, table.valid, groups, targets, needs_witness)


def _symmetric_design(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of the permutation-symmetric coefficient ansatz.

    An nck constraint over ``n`` *distinct* variables is invariant under
    any permutation of them, so a QUBO encoding exists iff a symmetric one
    does (average a feasible coefficient vector over all permutations: the
    validity spec's equalities and inequalities are preserved).  The
    symmetric ansatz with ``k`` ancillas ``y`` is

    .. math::

        f(s, y) = c_0 + a s + b \\tbinom{s}{2} + \\sum_j c_j y_j
                  + \\sum_j d_j s y_j + \\sum_{j<l} e_{jl} y_j y_l,

    a function of the TRUE-count ``s`` alone — shrinking the synthesis
    problem from :math:`2^n` rows to :math:`(n+1) 2^k`.

    Returns ``(design, s_values)`` where row ``(s, y)`` evaluates each
    symmetric monomial; the ``y`` index varies fastest.
    """
    anc = enumerate_assignments(k)
    s_vals = np.arange(n + 1, dtype=float)
    S = np.repeat(s_vals, anc.shape[0])
    Y = np.tile(anc, (n + 1, 1)).astype(float)
    cols = [np.ones_like(S), S, S * (S - 1) / 2.0]
    for j in range(k):
        cols.append(Y[:, j])
    for j in range(k):
        cols.append(S * Y[:, j])
    for j in range(k):
        for l in range(j + 1, k):
            cols.append(Y[:, j] * Y[:, l])
    return np.column_stack(cols), S


def _symmetric_theta_to_qubo(
    theta: np.ndarray, names: list[str], anc_names: list[str], tol: float = 1e-7
) -> QUBO:
    """Expand symmetric coefficients into a concrete QUBO.

    ``s = Σx`` so ``a·s`` distributes over linear terms, ``b·C(s,2)`` over
    variable pairs, and ``d_j·s·y_j`` over (variable, ancilla) couplings.
    """
    n, k = len(names), len(anc_names)
    c0, a, b = (_snap(t, tol) for t in theta[:3])
    c = [_snap(t, tol) for t in theta[3 : 3 + k]]
    d = [_snap(t, tol) for t in theta[3 + k : 3 + 2 * k]]
    e = [_snap(t, tol) for t in theta[3 + 2 * k :]]
    q = QUBO(offset=c0)
    for name in names:
        if a:
            q.add_linear(name, a)
    if b:
        for i in range(n):
            for j in range(i + 1, n):
                q.add_quadratic(names[i], names[j], b)
    for j in range(k):
        if c[j]:
            q.add_linear(anc_names[j], c[j])
        if d[j]:
            for name in names:
                q.add_quadratic(name, anc_names[j], d[j])
    idx = 0
    for j in range(k):
        for l in range(j + 1, k):
            if e[idx]:
                q.add_quadratic(anc_names[j], anc_names[l], e[idx])
            idx += 1
    return q


def _solve_symmetric(constraint: Constraint, k: int, exact: bool) -> np.ndarray | None:
    """Symmetric LP (k=0) / MILP (k>0) synthesis; theta or None.

    Only valid for constraints whose variables are all distinct.
    """
    n = constraint.collection.cardinality
    design, S = _symmetric_design(n, k)
    valid_s = np.isin(np.arange(n + 1), np.array(constraint.selection.values))
    n_anc_rows = 2**k

    if k == 0:
        targets = np.where(valid_s, 0.0, GAP)
        if exact:
            return _l1_lp(
                design,
                np.ones(n + 1, dtype=bool),
                targets,
                np.zeros(n + 1, dtype=bool),
                np.array([]),
            )
        return _l1_lp(design, valid_s, np.zeros(int(valid_s.sum())), ~valid_s, targets[~valid_s])

    groups = [np.arange(s * n_anc_rows, (s + 1) * n_anc_rows) for s in range(n + 1)]
    targets = np.where(valid_s, 0.0, GAP)
    needs_witness = np.ones(n + 1, dtype=bool) if exact else valid_s.copy()
    return _milp_witnessed(design, valid_s, groups, targets, needs_witness)


def synthesize_constraint_qubo(
    constraint: Constraint,
    *,
    ancilla_namer=None,
    allow_closed_form: bool = True,
    exact_penalty: bool = False,
) -> SynthesisResult:
    """Synthesize the per-constraint QUBO (Section V).

    Strategy, in order:

    1. closed forms (:mod:`repro.compile.closed_forms`), accepted in
       ``exact_penalty`` mode only when the penalty really is uniform;
    2. for all-distinct collections, the permutation-symmetric ansatz —
       LP without ancillas, then MILP with 1…:data:`MAX_ANCILLAS`
       ancillas (complete for the ancilla-free case, and the path that
       keeps large one-hot/cover constraints cheap);
    3. the general truth-table LP/MILP for collections with repeated
       variables.

    With ``exact_penalty=True`` the invalid assignments are pinned to
    exactly :data:`GAP`; if no such QUBO exists within the ancilla
    budget, the inequality form is synthesized instead and the result's
    ``exact_penalty`` flag is False — callers must compensate.

    ``ancilla_namer`` supplies fresh ancilla variable names (default:
    ``"_anc0"``, ``"_anc1"``, …; the program compiler overrides this with
    environment-unique names).

    Raises
    ------
    ConstraintConversionError
        If the constraint is unsatisfiable or no bounded-coefficient QUBO
        with ≤ :data:`MAX_ANCILLAS` ancillas encodes it.
    """
    if constraint.is_unsatisfiable():
        raise ConstraintConversionError(f"{constraint!r} is unsatisfiable")

    if ancilla_namer is None:
        counter = iter(range(10**6))
        ancilla_namer = lambda: f"_anc{next(counter)}"  # noqa: E731

    with telemetry.span(
        "compile.synthesize",
        variables=constraint.collection.cardinality,
        soft=constraint.soft,
    ) as sp:
        result = _synthesize_dispatch(
            constraint, ancilla_namer, allow_closed_form, exact_penalty
        )
        telemetry.count("compile.synthesize.calls")
        telemetry.count("compile.ancillas", len(result.ancillas))
        if result.used_closed_form:
            telemetry.count("compile.synthesize.closed_form")
        sp.set(ancillas=len(result.ancillas), closed_form=result.used_closed_form)
        return result


def _synthesize_dispatch(
    constraint: Constraint,
    ancilla_namer,
    allow_closed_form: bool,
    exact_penalty: bool,
) -> SynthesisResult:
    """The encoding chain behind :func:`synthesize_constraint_qubo`.

    A closed form is taken when one fits and, under ``exact_penalty``,
    its penalty really is exact; otherwise the LP/MILP search runs.  A
    closed form rejected for an inexact penalty has already drawn its
    ancilla names, so the search's names follow them.
    """
    if allow_closed_form:
        closed = closed_form_qubo(constraint, ancilla_namer)
        if closed is not None:
            qubo, ancillas = closed
            result = SynthesisResult(qubo=qubo, ancillas=ancillas, used_closed_form=True)
            is_exact = _penalty_is_exact(constraint, result)
            if is_exact or not exact_penalty:
                return replace(result, exact_penalty=is_exact)
    for want_exact in (True, False) if exact_penalty else (False,):
        result = _synthesize_search(constraint, ancilla_namer, want_exact)
        if result is not None:
            return result

    raise ConstraintConversionError(
        f"no QUBO with ≤ {MAX_ANCILLAS} ancillas and coefficients bounded by "
        f"{COEFFICIENT_BOUND} encodes {constraint!r}"
    )


def _synthesize_search(
    constraint: Constraint, ancilla_namer, exact: bool
) -> SynthesisResult | None:
    """One full LP→MILP search at a fixed exactness level."""
    names = [v.name for v in constraint.collection.unique]
    symmetric = all(m == 1 for m in constraint.collection.multiplicities)

    if symmetric:
        for k in range(0, MAX_ANCILLAS + 1):
            theta = _solve_symmetric(constraint, k, exact)
            if theta is not None:
                anc_names = [ancilla_namer() for _ in range(k)]
                return SynthesisResult(
                    qubo=_symmetric_theta_to_qubo(theta, names, anc_names),
                    ancillas=tuple(anc_names),
                    used_closed_form=False,
                    exact_penalty=exact,
                )
        # The symmetric-ancilla ansatz is complete for k=0 but only a
        # heuristic for k>0; fall through to the general search when the
        # truth table is still small enough to enumerate.
        if len(names) > MAX_UNIQUE_VARIABLES:
            return None

    table = build_truth_table(constraint)

    theta = _solve_lp_no_ancilla(table, exact)
    if theta is not None:
        return SynthesisResult(
            qubo=_theta_to_qubo(theta, names),
            ancillas=(),
            used_closed_form=False,
            exact_penalty=exact,
        )

    for k in range(1, MAX_ANCILLAS + 1):
        theta = _solve_milp_with_ancillas(table, k, exact)
        if theta is not None:
            anc_names = [ancilla_namer() for _ in range(k)]
            return SynthesisResult(
                qubo=_theta_to_qubo(theta, names + anc_names),
                ancillas=tuple(anc_names),
                used_closed_form=False,
                exact_penalty=exact,
            )
    return None


def _min_over_ancillas(constraint: Constraint, result: SynthesisResult) -> tuple:
    """Per-assignment (valid mask, min-over-ancilla energies).

    Uses the truth table when tractable, else the symmetric count table.
    """
    n_unique = len(constraint.collection.unique)
    if n_unique <= MAX_UNIQUE_VARIABLES:
        table = build_truth_table(constraint)
        names = list(table.variables) + list(result.ancillas)
        k = len(result.ancillas)
        anc = enumerate_assignments(k)
        ext = np.hstack(
            [
                np.repeat(table.assignments, anc.shape[0], axis=0),
                np.tile(anc, (table.assignments.shape[0], 1)),
            ]
        )
        energies = result.qubo.energies(ext, names).reshape(
            table.assignments.shape[0], -1
        )
        return table.valid, energies.min(axis=1)
    return _symmetric_min_over_ancillas(constraint, result)


def _symmetric_min_over_ancillas(constraint: Constraint, result: SynthesisResult):
    """Count-table evaluation for large all-distinct collections.

    Requires the QUBO to be permutation-symmetric (checked); returns
    (valid per count, min energies per count) or raises.
    """
    if any(m != 1 for m in constraint.collection.multiplicities):
        raise ValueError("symmetric evaluation needs all-distinct variables")
    names = [v.name for v in constraint.collection.unique]
    anc = set(result.ancillas)
    q = result.qubo
    lin_vals = {round(q.linear.get(v, 0.0), 9) for v in names}
    if len(lin_vals) > 1:
        raise ValueError("QUBO is not permutation-symmetric")
    pair_vals = set()
    anc_pair_vals: dict[str, set] = {a: set() for a in anc}
    for (u, v), b in q.quadratic.items():
        if u in anc and v in anc:
            continue
        if u in anc or v in anc:
            a_name = u if u in anc else v
            anc_pair_vals[a_name].add(round(b, 9))
        else:
            pair_vals.add(round(b, 9))
    if len(pair_vals) > 1 or any(len(s) > 1 for s in anc_pair_vals.values()):
        raise ValueError("QUBO is not permutation-symmetric")

    n = len(names)
    k = len(result.ancillas)
    anc_assign = enumerate_assignments(k)
    valid = np.isin(np.arange(n + 1), np.array(constraint.selection.values))
    mins = np.empty(n + 1)
    for s in range(n + 1):
        rep = {v: 0 for v in names}
        for v in names[:s]:
            rep[v] = 1
        energies = []
        for row in anc_assign:
            rep_full = dict(rep)
            rep_full.update({a: int(val) for a, val in zip(result.ancillas, row)})
            energies.append(q.energy(rep_full))
        mins[s] = min(energies)
    return valid, mins


def _penalty_is_exact(constraint: Constraint, result: SynthesisResult) -> bool:
    """True when every invalid assignment sits at exactly GAP."""
    try:
        valid, mins = _min_over_ancillas(constraint, result)
    except ValueError:
        return False
    invalid = ~valid
    if not invalid.any():
        return True
    return bool(np.allclose(mins[invalid], GAP, atol=1e-6))


def verify_constraint_qubo(constraint: Constraint, result: SynthesisResult) -> bool:
    """Check the synthesis validity spec exhaustively.

    For every assignment of the constraint's unique variables, the QUBO
    minimized over ancillas must be ≈0 when the constraint is satisfied
    and ≥ ``GAP`` − ε otherwise (== ``GAP`` when the result claims an
    exact penalty).  Collections too large to tabulate are verified
    through the permutation-symmetric structure instead.
    """
    try:
        valid, mins = _min_over_ancillas(constraint, result)
    except ValueError:
        return False
    ok_valid = np.allclose(mins[valid], 0.0, atol=1e-6)
    invalid = ~valid
    if not invalid.any():
        return ok_valid
    if result.exact_penalty:
        ok_invalid = bool(np.allclose(mins[invalid], GAP, atol=1e-6))
    else:
        ok_invalid = bool((mins[invalid] >= GAP - 1e-6).all())
    return ok_valid and ok_invalid
