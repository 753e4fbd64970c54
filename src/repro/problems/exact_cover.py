"""Exact (set) cover (NP-complete).

Given elements ``E`` and subsets ``S``, choose subsets covering every
element exactly once.  NchooseK formulation (Section VI-A.a): one
variable per subset; per element, ``nck({s_i : e ∈ s_i}, {1})`` — the
"trivial" one-hot selection set the paper highlights.  ``n`` constraints
for ``n`` elements, all potentially non-symmetric (collections differ in
cardinality).

Handcrafted QUBO (Lucas §4.1): :math:`\\sum_e (1 - \\sum_{i \\ni e} x_i)^2`
— up to ``n·N(N+1)/2`` terms when elements live in many subsets
(``O(nN²)``) versus NchooseK's ``O(n)`` constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.env import Env
from ..qubo.model import QUBO
from .base import ProblemInstance


@dataclass
class ExactCover(ProblemInstance):
    """Cover ``num_elements`` elements with ``subsets`` exactly once."""

    num_elements: int
    subsets: tuple[frozenset[int], ...]
    complexity_class = "NP-C"
    table_name = "Exact Cover"

    def __post_init__(self) -> None:
        self.subsets = tuple(frozenset(s) for s in self.subsets)
        covered = set().union(*self.subsets) if self.subsets else set()
        missing = set(range(self.num_elements)) - covered
        if missing:
            raise ValueError(f"elements {sorted(missing)} appear in no subset")

    def var(self, subset_index: int) -> str:
        return f"s{subset_index:03d}"

    def _members(self, element: int) -> list[int]:
        return [i for i, s in enumerate(self.subsets) if element in s]

    # ------------------------------------------------------------------
    def build_env(self) -> Env:
        env = Env()
        for e in range(self.num_elements):
            env.nck([self.var(i) for i in self._members(e)], [1])
        return env

    def handmade_qubo(self) -> QUBO:
        q = QUBO()
        for e in range(self.num_elements):
            members = self._members(e)
            # (1 - Σ x)² = 1 - Σ x + 2 Σ_{i<j} x_i x_j   (after x² = x)
            q.offset += 1.0
            for i in members:
                q.add_linear(self.var(i), -1.0)
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    q.add_quadratic(self.var(members[a]), self.var(members[b]), 2.0)
        return q

    # ------------------------------------------------------------------
    def verify(self, assignment: Mapping[str, bool]) -> bool:
        chosen = [i for i in range(len(self.subsets)) if assignment[self.var(i)]]
        counts = [0] * self.num_elements
        for i in chosen:
            for e in self.subsets[i]:
                counts[e] += 1
        return all(c == 1 for c in counts)

    # ------------------------------------------------------------------
    @classmethod
    def random_satisfiable(
        cls,
        num_elements: int,
        num_subsets: int,
        rng: np.random.Generator | None = None,
        max_subset_size: int = 4,
    ) -> "ExactCover":
        """A random instance guaranteed to have an exact cover.

        A hidden random partition of the elements supplies the solution;
        additional random subsets are decoys.  Element memberships are
        kept small so per-element collections (and thus per-constraint
        truth tables) stay compiler-friendly.
        """
        rng = rng or np.random.default_rng()
        if num_subsets < 1:
            raise ValueError("need at least one subset")
        elements = list(rng.permutation(num_elements))
        partition: list[set[int]] = []
        i = 0
        while i < num_elements:
            size = int(rng.integers(1, max_subset_size + 1))
            partition.append(set(elements[i : i + size]))
            i += size
        subsets = [frozenset(p) for p in partition]
        while len(subsets) < max(num_subsets, len(partition)):
            size = int(rng.integers(1, max_subset_size + 1))
            members = rng.choice(num_elements, size=min(size, num_elements), replace=False)
            subsets.append(frozenset(int(e) for e in members))
        order = rng.permutation(len(subsets))
        return cls(
            num_elements=num_elements,
            subsets=tuple(subsets[i] for i in order),
        )
