"""Unit tests for the QAOA driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    QAOA,
    StatevectorSimulator,
    XYRingMixer,
    cost_diagonal,
    qaoa_circuit,
    qaoa_probabilities,
)
from repro.qubo import IsingModel, QUBO, enumerate_assignments, qubo_to_ising


class TestCircuitConstruction:
    def test_layer_structure(self):
        model = IsingModel(h={"a": 1.0, "b": -1.0}, J={("a", "b"): 0.5})
        circ = qaoa_circuit(model, np.array([0.3]), np.array([0.2]))
        counts = circ.gate_counts()
        assert counts["h"] == 2  # superposition prep
        assert counts["rz"] == 2  # one per field
        assert counts["rzz"] == 1  # one per coupler
        assert counts["rx"] == 2  # mixer on every qubit

    def test_layers_multiply(self):
        model = IsingModel(h={"a": 1.0}, J={("a", "b"): 0.5})
        c1 = qaoa_circuit(model, np.array([0.3]), np.array([0.2]))
        c2 = qaoa_circuit(model, np.array([0.3, 0.1]), np.array([0.2, 0.4]))
        assert c2.num_gates == c1.num_gates + (c1.num_gates - 2)  # minus 2 H

    def test_zero_coefficients_skipped(self):
        """Circuit size tracks QUBO terms (the Figure 10 mechanism)."""
        model = IsingModel(h={"a": 0.0, "b": 1.0}, J={("a", "b"): 0.0})
        circ = qaoa_circuit(model, np.array([0.3]), np.array([0.2]))
        assert circ.gate_counts().get("rzz", 0) == 0
        assert circ.gate_counts()["rz"] == 1

    def test_mismatched_layers_rejected(self):
        model = IsingModel(h={"a": 1.0})
        with pytest.raises(ValueError):
            qaoa_circuit(model, np.array([0.1, 0.2]), np.array([0.1]))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            qaoa_circuit(IsingModel(), np.array([0.1]), np.array([0.1]))


class TestCostDiagonal:
    def test_matches_qubo_energies(self):
        q = QUBO({"a": 1.0, "b": -2.0}, {("a", "b"): 3.0}, offset=0.5)
        model = qubo_to_ising(q)
        variables = q.variables
        diag = cost_diagonal(model, variables)
        X = enumerate_assignments(len(variables))
        expected = q.energies(X, variables)
        assert np.allclose(diag, expected)


@st.composite
def qaoa_instances(draw):
    """A random Ising model, 1–3 layers of angles and either mixer."""
    n = draw(st.integers(min_value=1, max_value=12))
    layers = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = [f"s{i}" for i in range(n)]
    h = {v: float(rng.uniform(-2, 2)) for v in names if rng.random() < 0.7}
    J = {
        (names[i], names[j]): float(rng.uniform(-2, 2))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    }
    model = IsingModel(h=h, J=J, offset=float(rng.uniform(-2, 2)))
    angles = st.floats(min_value=-np.pi, max_value=np.pi)
    gammas = np.array(draw(st.lists(angles, min_size=layers, max_size=layers)))
    betas = np.array(draw(st.lists(angles, min_size=layers, max_size=layers)))
    if draw(st.booleans()):
        mixer = XYRingMixer(hamming_weight=draw(st.integers(min_value=0, max_value=n)))
    else:
        mixer = None  # transverse field
    return model, tuple(names), gammas, betas, mixer


class TestSimulationKernel:
    @given(qaoa_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_gate_level_simulation(self, instance):
        """The diagonal-phase kernel and the gate-by-gate circuit agree."""
        model, variables, gammas, betas, mixer = instance
        diagonal = cost_diagonal(model, variables)
        probs = qaoa_probabilities(diagonal, gammas, betas, mixer)
        circ = qaoa_circuit(model, gammas, betas, variables, mixer=mixer)
        sim = StatevectorSimulator()
        assert np.abs(probs - sim.probabilities(circ)).max() <= 1e-12
        assert abs(float(probs @ diagonal) - sim.expectation_diagonal(circ, diagonal)) <= 1e-12

    def test_mismatched_layers_rejected(self):
        with pytest.raises(ValueError):
            qaoa_probabilities(np.zeros(4), np.array([0.1, 0.2]), np.array([0.1]))


class TestOptimization:
    def test_finds_maxcut_of_triangle(self):
        """Noiseless QAOA on K3 max cut: best sampled state cuts 2 edges."""
        q = QUBO()
        for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
            q.offset += 1.0
            q.add_quadratic(u, v, 2.0)
            q.add_linear(u, -1.0)
            q.add_linear(v, -1.0)
        model = qubo_to_ising(q)
        result = QAOA(layers=2, maxiter=60).optimize(model, rng=np.random.default_rng(0))
        # Ground energy of the cut QUBO is 1 (2 of 3 edges cut).
        assert result.best_value == pytest.approx(1.0)

    def test_expectation_above_ground(self):
        q = QUBO({"a": -1.0})
        model = qubo_to_ising(q)
        result = QAOA(layers=1, maxiter=20).optimize(model, rng=np.random.default_rng(1))
        assert result.expectation >= -1.0 - 1e-9

    def test_circuit_evaluation_count_matches_paper_jobs(self):
        """≈25–35 optimizer evaluations, like the paper's jobs per QAOA."""
        q = QUBO({"a": -1.0, "b": 1.0}, {("a", "b"): 1.0})
        model = qubo_to_ising(q)
        result = QAOA(layers=1, maxiter=30).optimize(model, rng=np.random.default_rng(2))
        assert result.num_circuit_evaluations <= 35

    def test_counts_returned(self):
        q = QUBO({"a": -1.0})
        result = QAOA(maxiter=5).optimize(qubo_to_ising(q), rng=np.random.default_rng(3))
        assert sum(result.counts.values()) == 4000

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            QAOA(layers=0)


class TestMultistart:
    def test_multistart_no_worse_than_single(self):
        q = QUBO({"a": -1.0, "b": 1.0}, {("a", "b"): 2.0})
        model = qubo_to_ising(q)
        single = QAOA(layers=2, maxiter=15, multistart=1).optimize(
            model, rng=np.random.default_rng(5)
        )
        multi = QAOA(layers=2, maxiter=15, multistart=4).optimize(
            model, rng=np.random.default_rng(5)
        )
        assert multi.expectation <= single.expectation + 1e-9

    def test_invalid_multistart(self):
        with pytest.raises(ValueError):
            QAOA(multistart=0)
