"""Redundant (fault-tolerant) set cover — the inequality-count family.

A generalization of :class:`~repro.problems.set_cover.MinSetCover` in
which element ``e`` must be covered **at least** :math:`k_e \\ge 1`
times (multi-coverage demands, as in fault-tolerant facility/sensor
placement), while the number of chosen subsets is minimized.  The
NchooseK formulation is one inequality-count constraint per element,

    ``nck({s_i : e ∈ s_i}, {k_e .. card})``

whose accepting window has width ``card − k_e + 1``.  For demands above
one those windows are narrow (2–5 values in the instances the random
generator emits).  The compiler encodes each window in closed form: the
ancilla-free two-point form where a width-2 window admits it, otherwise
bounded slack.  This family thus carries the inequality shapes the other
Table I families rarely produce; ``repro solve``, ``repro certify`` and
the service mix run it.

Handcrafted baseline: the Lucas-style slack QUBO
:math:`A (\\sum_{i \\ni e} x_i - k_e - \\sum_j c_j y_{e,j})^2 + B \\sum_i x_i`
with log-encoded slack ``y`` spanning ``card − k_e`` surplus units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.env import Env
from ..qubo.model import QUBO
from .base import ProblemInstance


@dataclass
class RedundantCover(ProblemInstance):
    """Cover element ``e`` at least ``demands[e]`` times, minimizing subsets."""

    num_elements: int
    subsets: tuple[frozenset[int], ...]
    demands: tuple[int, ...]
    complexity_class = "NP-H"
    table_name = "Redundant Cover"

    def __post_init__(self) -> None:
        self.subsets = tuple(frozenset(s) for s in self.subsets)
        self.demands = tuple(int(k) for k in self.demands)
        if len(self.demands) != self.num_elements:
            raise ValueError(
                f"need one demand per element: got {len(self.demands)} "
                f"for {self.num_elements} elements"
            )
        for e, k in enumerate(self.demands):
            card = len(self._members(e))
            if k < 1:
                raise ValueError(f"element {e} has demand {k} < 1")
            if card < k:
                raise ValueError(
                    f"element {e} needs {k} covers but appears in only "
                    f"{card} subsets"
                )

    def var(self, subset_index: int) -> str:
        return f"s{subset_index:03d}"

    def _members(self, element: int) -> list[int]:
        return [i for i, s in enumerate(self.subsets) if element in s]

    # ------------------------------------------------------------------
    def build_env(self) -> Env:
        env = Env()
        for e in range(self.num_elements):
            members = self._members(e)
            env.nck(
                [self.var(i) for i in members],
                range(self.demands[e], len(members) + 1),
            )
        for i in range(len(self.subsets)):
            env.prefer_false(self.var(i))
        return env

    def handmade_qubo(self, hard_weight: float | None = None) -> QUBO:
        """Slack-encoded at-least-``k`` penalties + linear minimization."""
        A = hard_weight if hard_weight is not None else float(len(self.subsets) + 1)
        q = QUBO()
        for e in range(self.num_elements):
            k = self.demands[e]
            members = [self.var(i) for i in self._members(e)]
            span = len(members) - k
            weights: list[int] = []
            remaining, w = span, 1
            while remaining > 0:
                c = min(w, remaining)
                weights.append(c)
                remaining -= c
                w *= 2
            slacks = [f"w_e{e:03d}_{j}" for j in range(len(weights))]
            # A (Σx − k − Σ c_j y_j)²  expanded over binaries.
            q.offset += A * float(k * k)
            for name in members:
                q.add_linear(name, A * (1.0 - 2.0 * k))
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    q.add_quadratic(members[a], members[b], 2.0 * A)
            for cj, yj in zip(weights, slacks):
                q.add_linear(yj, A * float(cj * cj + 2 * k * cj))
                for name in members:
                    q.add_quadratic(name, yj, -2.0 * A * cj)
            for a in range(len(weights)):
                for b in range(a + 1, len(weights)):
                    q.add_quadratic(slacks[a], slacks[b], 2.0 * A * weights[a] * weights[b])
        for i in range(len(self.subsets)):
            q.add_linear(self.var(i), 1.0)
        return q

    # ------------------------------------------------------------------
    def verify(self, assignment: Mapping[str, bool]) -> bool:
        chosen = {i for i in range(len(self.subsets)) if assignment[self.var(i)]}
        return all(
            sum(1 for i in self._members(e) if i in chosen) >= self.demands[e]
            for e in range(self.num_elements)
        )

    def objective(self, assignment: Mapping[str, bool]) -> float:
        return float(
            sum(bool(assignment[self.var(i)]) for i in range(len(self.subsets)))
        )

    def optimal_cover_size(self) -> int:
        from ..classical.nck_solver import ExactNckSolver

        env = self.build_env()
        best = ExactNckSolver().solve(env)
        return int(self.objective(best.assignment))

    # ------------------------------------------------------------------
    @classmethod
    def random_satisfiable(
        cls,
        num_elements: int,
        num_subsets: int,
        rng: np.random.Generator,
        max_window: int = 5,
    ) -> "RedundantCover":
        """A random instance whose inequality windows have width 2–``max_window``.

        Each element is placed into ``m`` random subsets (``3 ≤ m ≤ 6``,
        capped by ``num_subsets``) and given a demand
        ``k = m − width + 1`` for a window width drawn from
        ``2..min(max_window, m)``.  Choosing every subset covers each
        element ``m ≥ k`` times, so the instance is always satisfiable.
        """
        if num_subsets < 3:
            raise ValueError("need at least 3 subsets for demand windows")
        sets: list[set[int]] = [set() for _ in range(num_subsets)]
        demands: list[int] = []
        for e in range(num_elements):
            m = int(rng.integers(3, min(6, num_subsets) + 1))
            for i in rng.choice(num_subsets, size=m, replace=False):
                sets[int(i)].add(e)
            width = int(rng.integers(2, min(max_window, m) + 1))
            demands.append(m - width + 1)
        return cls(
            num_elements=num_elements,
            subsets=tuple(frozenset(s) for s in sets),
            demands=tuple(demands),
        )
