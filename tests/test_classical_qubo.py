"""Unit tests for classical QUBO minimizers."""

import numpy as np
import pytest

from repro.classical import ExactNckSolver, ExactQUBOSolver, greedy_descent
from repro.problems import MinVertexCover, circulant_graph
from repro.qubo import QUBO


def random_qubo(rng, n) -> QUBO:
    q = QUBO()
    for i in range(n):
        q.add_linear(f"v{i:02d}", float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                q.add_quadratic(f"v{i:02d}", f"v{j:02d}", float(rng.normal()))
    return q


class TestExactSolver:
    def test_trivial(self):
        e, a = ExactQUBOSolver().solve(QUBO(offset=5.0))
        assert e == 5.0 and a == {}

    def test_exhaustive_matches_ground_states(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = random_qubo(rng, 8)
            e_solver, a = ExactQUBOSolver().solve(q)
            e_truth, _ = q.ground_states()
            assert e_solver == pytest.approx(e_truth)
            assert q.energy(a) == pytest.approx(e_truth)

    def test_branch_and_bound_matches_exhaustive(self):
        rng = np.random.default_rng(6)
        q = random_qubo(rng, 10)
        solver = ExactQUBOSolver()
        e_bb, a_bb = solver._solve_branch_and_bound(q, q.variables)
        e_ex, _ = solver._solve_exhaustive(q, q.variables)
        assert e_bb == pytest.approx(e_ex)
        assert q.energy(a_bb) == pytest.approx(e_ex)

    def test_node_limit(self):
        rng = np.random.default_rng(7)
        q = random_qubo(rng, 12)
        solver = ExactQUBOSolver(node_limit=5)
        with pytest.raises(RuntimeError):
            solver._solve_branch_and_bound(q, q.variables)


class TestQUBOVersusConstraintProgram:
    """§VIII-C: solving the QUBO-translated problem classically is far
    slower than solving the constraint program it came from."""

    @pytest.mark.parametrize("n", [9, 12])
    def test_qubo_search_visits_far_more_nodes(self, n):
        env = MinVertexCover(circulant_graph(n)).build_env()
        qubo = env.to_qubo().qubo
        qubo_solver = ExactQUBOSolver()
        energy, _ = qubo_solver._solve_branch_and_bound(qubo, qubo.variables)
        assert energy == qubo.ground_states()[0]
        nck_solver = ExactNckSolver()
        nck_solver.solve(env)
        # Measured: 751 vs 11 nodes at n = 9, 4,697 vs 19 at n = 12.
        assert qubo_solver.nodes_visited >= 50 * nck_solver.nodes_visited


class TestGreedyDescent:
    def test_never_increases_energy(self):
        rng = np.random.default_rng(8)
        q = random_qubo(rng, 10)
        X = rng.integers(0, 2, size=(30, 10))
        before = q.energies(X)
        after = q.energies(greedy_descent(q, X))
        assert (after <= before + 1e-9).all()

    def test_reaches_local_minimum(self):
        """No single flip improves any returned sample."""
        rng = np.random.default_rng(9)
        q = random_qubo(rng, 6)
        X = rng.integers(0, 2, size=(10, 6))
        out = greedy_descent(q, X, max_sweeps=100)
        variables = q.variables
        energies = q.energies(out)
        for row, e in zip(out, energies):
            for i in range(6):
                flipped = row.copy()
                flipped[i] = 1 - flipped[i]
                assert q.energies(flipped[None, :], variables)[0] >= e - 1e-9

    def test_one_dimensional_input(self):
        q = QUBO({"a": 1.0, "b": -1.0})
        out = greedy_descent(q, np.array([1, 0]))
        assert out.shape == (1, 2)
        assert q.energies(out)[0] == pytest.approx(-1.0)
