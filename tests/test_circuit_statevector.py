"""Unit tests for the statevector simulator."""

import numpy as np
import pytest

from repro.circuit import Circuit, StatevectorSimulator
from repro.circuit.statevector import (
    MAX_SIMULATED_QUBITS,
    basis_index_to_bits,
    bits_to_basis_index,
    draw_counts,
)


@pytest.fixture
def sim():
    return StatevectorSimulator()


class TestBasics:
    def test_identity_on_empty_circuit(self, sim):
        amps = sim.run(Circuit(2))
        assert np.allclose(amps, [1, 0, 0, 0])

    def test_x_flips(self, sim):
        c = Circuit(2)
        c.add("x", 1)
        amps = sim.run(c)
        assert np.allclose(amps, [0, 1, 0, 0])  # qubit 0 is the MSB

    def test_bell_state(self, sim):
        c = Circuit(2)
        c.add("h", 0)
        c.add("cx", (0, 1))
        amps = sim.run(c)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(amps, expected)

    def test_ghz_probabilities(self, sim):
        c = Circuit(3)
        c.add("h", 0)
        c.add("cx", (0, 1))
        c.add("cx", (1, 2))
        probs = sim.probabilities(c)
        assert probs[0] == pytest.approx(0.5)
        assert probs[7] == pytest.approx(0.5)
        assert probs[1:7].sum() == pytest.approx(0.0)

    def test_norm_preserved(self, sim):
        rng = np.random.default_rng(0)
        c = Circuit(3)
        for _ in range(20):
            q = int(rng.integers(3))
            c.add("rx", q, float(rng.normal()))
            c.add("rz", q, float(rng.normal()))
            if rng.random() < 0.5:
                a, b = rng.choice(3, size=2, replace=False)
                c.add("cx", (int(a), int(b)))
        probs = sim.probabilities(c)
        assert probs.sum() == pytest.approx(1.0)

    def test_qubit_limit(self, sim):
        with pytest.raises(ValueError):
            sim.run(Circuit(MAX_SIMULATED_QUBITS + 1))

    def test_initial_state(self, sim):
        state = np.zeros(4)
        state[3] = 1.0
        c = Circuit(2)
        c.add("x", 0)
        amps = sim.run(c, initial_state=state)
        assert np.allclose(amps, [0, 1, 0, 0])

    def test_unnormalized_initial_state_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.run(Circuit(1), initial_state=np.array([2.0, 0.0]))


class TestSampling:
    def test_counts_sum_to_shots(self, sim):
        c = Circuit(2)
        c.add("h", 0)
        counts = draw_counts(sim.probabilities(c), 1000, np.random.default_rng(0))
        assert sum(counts.values()) == 1000

    def test_deterministic_circuit_samples_one_state(self, sim):
        c = Circuit(2)
        c.add("x", 0)
        counts = draw_counts(sim.probabilities(c), 100, np.random.default_rng(1))
        assert counts == {2: 100}

    def test_uniform_superposition_covers_states(self, sim):
        c = Circuit(2)
        c.add("h", 0)
        c.add("h", 1)
        counts = draw_counts(sim.probabilities(c), 4000, np.random.default_rng(2))
        assert set(counts) == {0, 1, 2, 3}
        for v in counts.values():
            assert 800 < v < 1200


class TestExpectation:
    def test_diagonal_expectation(self, sim):
        c = Circuit(1)
        c.add("h", 0)
        # Z observable: diag(1, -1); ⟨+|Z|+⟩ = 0
        assert sim.expectation_diagonal(c, np.array([1.0, -1.0])) == pytest.approx(0.0)

    def test_shape_validation(self, sim):
        with pytest.raises(ValueError):
            sim.expectation_diagonal(Circuit(1), np.array([1.0, 2.0, 3.0]))


class TestIndexHelpers:
    def test_roundtrip(self):
        bits = basis_index_to_bits(6, 3)
        assert bits.tolist() == [1, 1, 0]
        assert bits_to_basis_index(bits) == 6

    def test_msb_convention(self):
        assert basis_index_to_bits(4, 3).tolist() == [1, 0, 0]
