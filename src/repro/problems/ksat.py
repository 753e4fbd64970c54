"""k-satisfiability (NP-complete; the paper evaluates 3-SAT).

A clause is a disjunction of ``k`` literals.  NchooseK has no negation
(Definition 3 counts TRUEs only), so the paper offers two encodings
(Section VI-A.f), both implemented here:

* **dual-rail** (:meth:`KSat.build_env`): one ancilla variable per
  original variable holding the opposite value, bound by
  ``nck({x, x̄}, {1})``; each clause then ranges over positive rails with
  selection ``{1..k}``.  ``n + m`` constraints, two symmetry classes.
* **repeated-variable** (:meth:`KSat.build_env_repeated`): negated
  literals enter the collection with distinct power-of-3 multiplicities
  so the single violating assignment has a unique TRUE-count, excluded
  from the selection set.  ``m`` constraints but more complex ones ("the
  more complicated constraints run the risk of requiring more ancillary
  qubits", and up to ``k`` symmetry classes).

Handcrafted QUBO: the classical reduction to Maximum Independent Set
(Lucas §10.2; the paper cites the same route): one node per literal
*occurrence*, edges within each clause and between complementary
occurrences; ``H = -Σ x + 2 Σ_{(i,j)∈E} x_i x_j``; the formula is
satisfiable iff the MIS has size ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.env import Env
from ..qubo.model import QUBO
from .base import ProblemInstance

#: A literal: (variable index, is_positive).
Literal = tuple[int, bool]


@dataclass
class KSat(ProblemInstance):
    """A k-SAT instance: ``num_vars`` variables, clauses of literals."""

    num_vars: int
    clauses: tuple[tuple[Literal, ...], ...]
    complexity_class = "NP-C"
    table_name = "k-SAT"

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for var, _pos in clause:
                if not 0 <= var < self.num_vars:
                    raise ValueError(f"literal variable {var} out of range")
            if len({v for v, _ in clause}) != len(clause):
                raise ValueError(f"clause {clause} repeats a variable")

    def var(self, i: int) -> str:
        return f"x{i:03d}"

    def neg(self, i: int) -> str:
        return f"nx{i:03d}"

    @property
    def k(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    # ------------------------------------------------------------------
    def build_env(self) -> Env:
        """Dual-rail encoding: ancilla negations + at-least-one clauses."""
        env = Env()
        negated = {v for clause in self.clauses for (v, pos) in clause if not pos}
        for v in sorted(negated):
            env.nck([self.var(v), self.neg(v)], [1])
        for clause in self.clauses:
            rails = [self.var(v) if pos else self.neg(v) for v, pos in clause]
            env.nck(rails, range(1, len(rails) + 1))
        return env

    def build_env_repeated(self) -> Env:
        """Repeated-variable encoding (the paper's ``nck({x,y,z,z,z},…)``).

        Positive literals carry multiplicity 1; the ``j``-th negated
        literal carries multiplicity ``(p+2)^(j+1)`` where ``p`` is the
        number of positive literals — a positional number system in which
        the clause's unique violating assignment (all positives FALSE,
        all negated variables TRUE) is the only one reaching its specific
        TRUE-count.  The selection set is every reachable count except
        that one.  (The paper's inline example drops one repetition of
        ``z``; with ``z`` doubled the counts collide, so we use the
        collision-free weights.)
        """
        env = Env()
        for clause in self.clauses:
            positives = [v for v, pos in clause if pos]
            negatives = [v for v, pos in clause if not pos]
            # Weights: positives 1 each; negatives distinct powers of
            # (len(positives)+2) so no combination of positives can mimic
            # the all-negatives count.
            base = len(positives) + 2
            weights: dict[int, int] = {v: 1 for v in positives}
            for j, v in enumerate(negatives):
                weights[v] = base ** (j + 1)
            collection: list[str] = []
            for v, w in weights.items():
                collection.extend([self.var(v)] * w)
            violating = sum(base ** (j + 1) for j in range(len(negatives)))
            reachable = {0}
            for w in weights.values():
                reachable |= {r + w for r in reachable}
            selection = sorted(reachable - {violating})
            env.nck(collection, selection)
        return env

    def handmade_qubo(self) -> QUBO:
        """The Maximum-Independent-Set QUBO of the standard reduction."""
        q = QUBO()

        def node(ci: int, li: int) -> str:
            return f"c{ci:03d}_l{li}"

        occurrences: dict[tuple[int, bool], list[str]] = {}
        for ci, clause in enumerate(self.clauses):
            names = [node(ci, li) for li in range(len(clause))]
            for li, (v, pos) in enumerate(clause):
                q.add_linear(names[li], -1.0)
                occurrences.setdefault((v, pos), []).append(names[li])
            for a in range(len(names)):
                for b in range(a + 1, len(names)):
                    q.add_quadratic(names[a], names[b], 2.0)
        # Conflict edges between complementary occurrences.
        for (v, pos), nodes in occurrences.items():
            if not pos:
                continue
            for other in occurrences.get((v, False), []):
                for mine in nodes:
                    q.add_quadratic(mine, other, 2.0)
        return q

    # ------------------------------------------------------------------
    def clause_satisfied(self, clause, assignment: Mapping[str, bool]) -> bool:
        return any(
            bool(assignment[self.var(v)]) == pos for v, pos in clause
        )

    def verify(self, assignment: Mapping[str, bool]) -> bool:
        return all(self.clause_satisfied(c, assignment) for c in self.clauses)

    def is_satisfiable(self) -> bool:
        from ..classical.nck_solver import ExactNckSolver
        from ..core.types import UnsatisfiableError

        try:
            ExactNckSolver().solve(self.build_env())
            return True
        except UnsatisfiableError:
            return False

    # ------------------------------------------------------------------
    @classmethod
    def random_3sat(
        cls,
        num_vars: int,
        num_clauses: int,
        rng: np.random.Generator | None = None,
        force_satisfiable: bool = True,
    ) -> "KSat":
        """A random 3-SAT instance.

        With ``force_satisfiable`` a hidden assignment is drawn first and
        each clause is re-rolled until it satisfies it, so scaling studies
        measure solver fidelity rather than UNSAT detection.
        """
        rng = rng or np.random.default_rng()
        if num_vars < 3:
            raise ValueError("3-SAT needs at least 3 variables")
        hidden = rng.integers(0, 2, size=num_vars).astype(bool)
        clauses = []
        for _ in range(num_clauses):
            while True:
                vs = rng.choice(num_vars, size=3, replace=False)
                signs = rng.integers(0, 2, size=3).astype(bool)
                clause = tuple((int(v), bool(s)) for v, s in zip(vs, signs))
                if not force_satisfiable or any(
                    hidden[v] == pos for v, pos in clause
                ):
                    break
            clauses.append(clause)
        return cls(num_vars=num_vars, clauses=tuple(clauses))
