"""Quadratic unconstrained binary optimization (QUBO) representation.

A QUBO minimizes

.. math::

    f(x) = c + \\sum_i a_i x_i + \\sum_{i<j} b_{ij} x_i x_j,
    \\qquad x_i \\in \\{0, 1\\}.

Two properties the NchooseK compiler exploits (Section V of the paper):

* **Compositionality** — QUBOs add: the sum of per-constraint QUBOs is the
  program QUBO, and its minima respect all constituent constraints when
  the penalty gaps are balanced.
* **Positive scaling** — multiplying a QUBO by a positive constant leaves
  its argmin unchanged; the compiler scales hard-constraint QUBOs above
  the total weight of soft ones.

Variables are identified by string name.  Coefficients are stored sparsely
in dictionaries; batch evaluation converts to a dense matrix once and then
runs fully vectorized (see :mod:`repro.qubo.matrix`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..store import content_hash


class QUBO:
    """A sparse QUBO over named binary variables."""

    __slots__ = ("linear", "quadratic", "offset")

    def __init__(
        self,
        linear: Mapping[str, float] | None = None,
        quadratic: Mapping[tuple[str, str], float] | None = None,
        offset: float = 0.0,
    ) -> None:
        self.linear: dict[str, float] = dict(linear or {})
        self.quadratic: dict[tuple[str, str], float] = {}
        self.offset = float(offset)
        for (u, v), coeff in (quadratic or {}).items():
            self.add_quadratic(u, v, coeff)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_linear(self, var: str, coeff: float) -> None:
        """Accumulate ``coeff * var`` into the objective."""
        self.linear[var] = self.linear.get(var, 0.0) + float(coeff)

    def add_quadratic(self, u: str, v: str, coeff: float) -> None:
        """Accumulate ``coeff * u * v``.

        A self-pair collapses to a linear term (``x*x == x`` for binaries).
        Pairs are stored with endpoints sorted so ``(u,v)`` and ``(v,u)``
        accumulate together.
        """
        if u == v:
            self.add_linear(u, coeff)
            return
        key = (u, v) if u < v else (v, u)
        self.quadratic[key] = self.quadratic.get(key, 0.0) + float(coeff)

    def copy(self) -> "QUBO":
        out = QUBO.__new__(QUBO)
        out.linear = dict(self.linear)
        out.quadratic = dict(self.quadratic)
        out.offset = self.offset
        return out

    def relabeled(self, mapping: Mapping[str, str]) -> "QUBO":
        """A copy with variables renamed through ``mapping``.

        Variables absent from ``mapping`` keep their names.  Distinct
        variables may map to the same target; their coefficients merge
        (used when a constraint's collection repeats a variable).
        """
        out = QUBO(offset=self.offset)
        for v, a in self.linear.items():
            out.add_linear(mapping.get(v, v), a)
        for (u, v), b in self.quadratic.items():
            out.add_quadratic(mapping.get(u, u), mapping.get(v, v), b)
        return out

    # ------------------------------------------------------------------
    # Algebra (compositionality)
    # ------------------------------------------------------------------
    def __iadd__(self, other: "QUBO") -> "QUBO":
        for v, a in other.linear.items():
            self.add_linear(v, a)
        for (u, v), b in other.quadratic.items():
            self.add_quadratic(u, v, b)
        self.offset += other.offset
        return self

    def __add__(self, other: "QUBO") -> "QUBO":
        out = self.copy()
        out += other
        return out

    def __imul__(self, factor: float) -> "QUBO":
        factor = float(factor)
        if factor <= 0:
            raise ValueError("QUBOs may only be scaled by a positive factor")
        for v in self.linear:
            self.linear[v] *= factor
        for k in self.quadratic:
            self.quadratic[k] *= factor
        self.offset *= factor
        return self

    def __mul__(self, factor: float) -> "QUBO":
        out = self.copy()
        out *= factor
        return out

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """All variables appearing with any coefficient, sorted by name."""
        names = set(self.linear)
        for u, v in self.quadratic:
            names.add(u)
            names.add(v)
        return tuple(sorted(names))

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def num_terms(self, tol: float = 1e-12) -> int:
        """Number of nonzero linear + quadratic terms.

        This is the "QUBO terms" metric of Table I.
        """
        n = sum(1 for a in self.linear.values() if abs(a) > tol)
        n += sum(1 for b in self.quadratic.values() if abs(b) > tol)
        return n

    def max_abs_coefficient(self) -> float:
        """Largest coefficient magnitude (drives annealer dynamic range)."""
        vals = [abs(a) for a in self.linear.values()]
        vals += [abs(b) for b in self.quadratic.values()]
        return max(vals, default=0.0)

    def pruned(self, tol: float = 1e-12) -> "QUBO":
        """A copy with near-zero coefficients removed."""
        return QUBO(
            {v: a for v, a in self.linear.items() if abs(a) > tol},
            {k: b for k, b in self.quadratic.items() if abs(b) > tol},
            self.offset,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def energy(self, assignment: Mapping[str, bool | int]) -> float:
        """Objective value at one assignment (name → {0,1} or bool)."""
        e = self.offset
        for v, a in self.linear.items():
            e += a * int(assignment[v])
        for (u, v), b in self.quadratic.items():
            e += b * int(assignment[u]) * int(assignment[v])
        return e

    def energies(
        self,
        samples: np.ndarray,
        order: Iterable[str] | None = None,
        representation: str | None = None,
    ) -> np.ndarray:
        """Vectorized objective over a batch of assignments.

        ``samples`` is a ``(num_samples, num_variables)`` 0/1 array whose
        columns follow ``order`` (default: :attr:`variables`).
        ``representation`` forces the ``"dense"`` einsum or the
        ``"sparse"`` CSR kernel; ``None`` applies the shared density
        heuristic (:func:`repro.qubo.matrix.preferred_representation`).
        """
        variables = tuple(order) if order is not None else self.variables
        from .matrix import preferred_representation, sparse_energies, to_dense, to_sparse

        chosen = preferred_representation(
            len(variables), len(self.quadratic), representation
        )
        if chosen == "sparse":
            Q, offset = to_sparse(self, variables)
            return sparse_energies(Q, offset, samples)
        Q, offset = to_dense(self, variables)
        X = np.asarray(samples, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        # x^T Q x with Q upper-triangular (linear terms on the diagonal).
        return np.einsum("si,ij,sj->s", X, Q, X) + offset

    def ground_states(self) -> tuple[float, list[dict[str, int]]]:
        """Exhaustive minimum energy and all minimizing assignments.

        Exponential in the variable count; intended for small (≤ ~20
        variable) QUBOs such as per-constraint truth tables and tests.
        Capped at :data:`repro.qubo.matrix.EXHAUSTIVE_SEARCH_LIMIT`
        variables, the repo-wide enumeration limit.
        """
        variables = self.variables
        n = len(variables)
        if n == 0:
            return self.offset, [{}]
        from .matrix import EXHAUSTIVE_SEARCH_LIMIT, enumerate_assignments

        if n > EXHAUSTIVE_SEARCH_LIMIT:
            raise ValueError(f"exhaustive ground-state search infeasible for {n} variables")

        X = enumerate_assignments(n)
        e = self.energies(X, variables)
        lo = e.min()
        rows = np.flatnonzero(np.isclose(e, lo, atol=1e-9))
        states = [dict(zip(variables, map(int, X[r]))) for r in rows]
        return float(lo), states

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QUBO):
            return NotImplemented
        a, b = self.pruned(), other.pruned()
        if set(a.linear) != set(b.linear) or set(a.quadratic) != set(b.quadratic):
            return False
        tol = 1e-9
        return (
            all(abs(v - b.linear[k]) < tol for k, v in a.linear.items())
            and all(abs(v - b.quadratic[k]) < tol for k, v in a.quadratic.items())
            and abs(a.offset - b.offset) < tol
        )

    def __repr__(self) -> str:
        terms = []
        if abs(self.offset) > 1e-12:
            terms.append(f"{self.offset:g}")
        terms += [f"{a:g}*{v}" for v, a in sorted(self.linear.items()) if abs(a) > 1e-12]
        terms += [
            f"{b:g}*{u}*{v}" for (u, v), b in sorted(self.quadratic.items()) if abs(b) > 1e-12
        ]
        return "QUBO(" + " + ".join(terms).replace("+ -", "- ") + ")" if terms else "QUBO(0)"


def qubo_fingerprint(qubo: QUBO) -> str:
    """Content hash of a QUBO, stable under term ordering.

    Coefficients are pruned and rounded to 9 decimals first, so float
    noise below that does not change the hash.  For whole compiled
    programs prefer
    :attr:`~repro.compile.program.CompiledProgram.fingerprint`, which
    memoizes this hash on the artifact — certification and the
    service-layer result cache (:mod:`repro.service`) share that one
    computation instead of re-hashing per call site.
    """
    pruned = qubo.pruned()
    return content_hash(
        {
            "offset": round(pruned.offset, 9),
            "linear": sorted((v, round(a, 9)) for v, a in pruned.linear.items()),
            "quadratic": sorted(
                (min(u, v), max(u, v), round(b, 9))
                for (u, v), b in pruned.quadratic.items()
            ),
        }
    )
