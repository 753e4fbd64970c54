"""Exact and heuristic classical QUBO minimizers.

Two roles:

* ``ExactQUBOSolver`` — vectorized exhaustive search (small problems) and
  a depth-first branch-and-bound with interval bounds (medium problems).
  Section VIII-C observes that handing QUBO-translated problems to a
  classical solver performs far worse than solving the original
  constraint program; ``tests/test_classical_qubo.py`` reproduces that
  gap with this solver's branch-and-bound against
  :class:`~repro.classical.nck_solver.ExactNckSolver`.
* ``greedy_descent`` — single-flip local search used by the annealing
  device for post-processing and by tests as a cheap reference.
"""

from __future__ import annotations

import numpy as np

from ..qubo.matrix import EXHAUSTIVE_SEARCH_LIMIT, enumerate_assignments, to_dense
from ..qubo.model import QUBO

#: Exhaustive enumeration limit — an alias of the repo-wide cap
#: :data:`repro.qubo.matrix.EXHAUSTIVE_SEARCH_LIMIT` (kept as a name for
#: backward compatibility; see ``docs/numerics.md``).
EXHAUSTIVE_LIMIT = EXHAUSTIVE_SEARCH_LIMIT


class ExactQUBOSolver:
    """Exact QUBO minimization.

    ``solve`` dispatches on size: exhaustive vectorized enumeration up to
    :data:`EXHAUSTIVE_LIMIT` variables, branch-and-bound beyond.
    """

    name = "classical-qubo-exact"

    def __init__(self, node_limit: int = 50_000_000) -> None:
        self.node_limit = node_limit
        self.nodes_visited = 0

    def solve(self, qubo: QUBO) -> tuple[float, dict[str, int]]:
        """Return ``(minimum energy, one minimizing assignment)``."""
        variables = qubo.variables
        if not variables:
            return qubo.offset, {}
        if len(variables) <= EXHAUSTIVE_LIMIT:
            return self._solve_exhaustive(qubo, variables)
        return self._solve_branch_and_bound(qubo, variables)

    # ------------------------------------------------------------------
    def _solve_exhaustive(self, qubo: QUBO, variables: tuple[str, ...]):
        n = len(variables)
        # Chunk to bound peak memory at ~2**18 rows per energy evaluation.
        chunk_bits = min(n, 18)
        best_e = np.inf
        best_row = None
        Q, offset = to_dense(qubo, variables)
        base = enumerate_assignments(chunk_bits).astype(float)
        for high in range(2 ** (n - chunk_bits)):
            if n > chunk_bits:
                prefix = np.array(
                    [(high >> (n - chunk_bits - 1 - i)) & 1 for i in range(n - chunk_bits)],
                    dtype=float,
                )
                X = np.hstack([np.broadcast_to(prefix, (base.shape[0], prefix.size)), base])
            else:
                X = base
            e = np.einsum("si,ij,sj->s", X, Q, X) + offset
            i = int(e.argmin())
            if e[i] < best_e:
                best_e = float(e[i])
                best_row = X[i].astype(int)
        assignment = dict(zip(variables, map(int, best_row)))
        return best_e, assignment

    # ------------------------------------------------------------------
    def _solve_branch_and_bound(self, qubo: QUBO, variables: tuple[str, ...]):
        """DFS with an interval lower bound.

        At each node, the bound adds for every undecided variable the most
        negative contribution it could make (its linear coefficient plus
        all negative couplings to decided-TRUE and undecided variables).
        Exact but exponential in the worst case — which is the point of
        the comparison test.
        """
        Q, offset = to_dense(qubo, variables)
        Qs = Q + Q.T - np.diag(np.diag(Q))  # symmetric couplings, diag = linear
        n = len(variables)
        order = np.argsort(-np.abs(Qs).sum(axis=1))  # high-impact first
        lin = np.diag(Q).copy()

        best_e = np.inf
        best_x = None
        x = np.zeros(n, dtype=np.int8)
        self.nodes_visited = 0

        neg_off = np.minimum(Qs - np.diag(np.diag(Qs)), 0.0)

        def bound(depth: int, energy: float) -> float:
            undecided = order[depth:]
            decided_true = [order[i] for i in range(depth) if x[order[i]]]
            b = energy
            for j in undecided:
                gain = lin[j]
                gain += sum(min(Qs[j, i], 0.0) for i in decided_true)
                gain += neg_off[j, undecided].sum() / 2.0  # split pair credit
                b += min(gain, 0.0)
            return b

        def energy_delta(j: int, depth: int) -> float:
            """Energy increase from setting variable ``order[depth]`` = j TRUE."""
            v = order[depth]
            e = lin[v]
            for i in range(depth):
                u = order[i]
                if x[u]:
                    e += Qs[v, u]
            return e

        def dfs(depth: int, energy: float) -> None:
            nonlocal best_e, best_x
            self.nodes_visited += 1
            if self.nodes_visited > self.node_limit:
                raise RuntimeError(f"ExactQUBOSolver exceeded node limit {self.node_limit}")
            if depth == n:
                if energy < best_e:
                    best_e = energy
                    best_x = x.copy()
                return
            if bound(depth, energy) >= best_e:
                return
            v = order[depth]
            for value in (0, 1):
                x[v] = value
                dfs(depth + 1, energy + (energy_delta(value, depth) if value else 0.0))
            x[v] = 0

        dfs(0, offset)
        assignment = dict(zip(variables, map(int, best_x)))
        return float(best_e), assignment


def greedy_descent(
    qubo: QUBO,
    samples: np.ndarray,
    order: tuple[str, ...] | None = None,
    max_sweeps: int = 10,
) -> np.ndarray:
    """Single-flip steepest descent applied to each sample row in place.

    Vectorized across samples: each sweep computes every one-flip energy
    delta for every sample and applies all strictly-improving flips
    greedily (one flip per sample per sweep), stopping when no sample
    improves.  Used as annealer post-processing and as a test baseline.
    """
    variables = tuple(order) if order is not None else qubo.variables
    Q, _ = to_dense(qubo, variables)
    Qs = Q + Q.T - np.diag(np.diag(Q))
    lin = np.diag(Q)
    X = np.asarray(samples, dtype=float).copy()
    if X.ndim == 1:
        X = X[None, :]
    for _ in range(max_sweeps):
        # delta_i = (1-2x_i) * (lin_i + sum_j Qs_ij x_j)  [j != i]
        field = X @ Qs - X * np.diag(Qs) + lin
        deltas = (1.0 - 2.0 * X) * field
        best = deltas.argmin(axis=1)
        improving = deltas[np.arange(X.shape[0]), best] < -1e-12
        if not improving.any():
            break
        rows = np.flatnonzero(improving)
        X[rows, best[rows]] = 1.0 - X[rows, best[rows]]
    return X.astype(np.int8)
