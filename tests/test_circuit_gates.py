"""Unit tests for gate definitions and basis decompositions."""

import numpy as np
import pytest

from repro.circuit import BASIS_GATES, Gate, decompose_to_basis, gate_matrix
from repro.circuit.gates import GATE_ARITY, GATE_PARAMS


def as_unitary_over(gates: list[Gate], qubits: tuple[int, ...]) -> np.ndarray:
    """Compose a gate list into one unitary over the given qubit tuple."""
    from repro.circuit import Circuit
    from repro.circuit.statevector import StatevectorSimulator

    n = max(max(g.qubits) for g in gates) + 1 if gates else 1
    n = max(n, max(qubits) + 1)
    dim = 2**n
    sim = StatevectorSimulator()
    cols = []
    for basis in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[basis] = 1.0
        circ = Circuit(n, gates)
        cols.append(sim.run(circ, state))
    return np.array(cols).T


class TestMatrices:
    @pytest.mark.parametrize("name", sorted(GATE_ARITY))
    def test_unitarity(self, name):
        params = (0.37,) * GATE_PARAMS[name]
        U = gate_matrix(name, params)
        d = U.shape[0]
        assert np.allclose(U @ U.conj().T, np.eye(d), atol=1e-12)

    def test_h_squares_to_identity(self):
        H = gate_matrix("h")
        assert np.allclose(H @ H, np.eye(2))

    def test_sx_squares_to_x(self):
        SX = gate_matrix("sx")
        assert np.allclose(SX @ SX, gate_matrix("x"))

    def test_rzz_diagonal(self):
        U = gate_matrix("rzz", (0.5,))
        assert np.allclose(U, np.diag(np.diag(U)))

    def test_cx_action(self):
        U = gate_matrix("cx")
        # |10> -> |11> (first qubit is the control / MSB)
        state = np.zeros(4)
        state[2] = 1.0
        assert np.allclose(U @ state, [0, 0, 0, 1])

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_matrix("nope")


class TestGateValidation:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_param_count_checked(self):
        with pytest.raises(ValueError):
            Gate("rz", (0,))
        with pytest.raises(ValueError):
            Gate("h", (0,), (1.0,))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Gate("frobnicate", (0,))


def global_phase_equal(A: np.ndarray, B: np.ndarray) -> bool:
    """U ≡ V up to global phase."""
    idx = np.unravel_index(np.abs(B).argmax(), B.shape)
    if abs(A[idx]) < 1e-12:
        return False
    phase = B[idx] / A[idx]
    return np.allclose(A * phase, B, atol=1e-9)


class TestDecomposition:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("h", (0,)),
            Gate("rx", (0,), (0.7,)),
            Gate("ry", (0,), (1.3,)),
            Gate("y", (0,)),
            Gate("z", (0,)),
            Gate("rzz", (0, 1), (0.9,)),
            Gate("swap", (0, 1)),
            Gate("cz", (0, 1)),
        ],
    )
    def test_equivalent_up_to_phase(self, gate):
        original = as_unitary_over([gate], gate.qubits)
        decomposed = decompose_to_basis(gate)
        assert all(g.name in BASIS_GATES for g in decomposed)
        rebuilt = as_unitary_over(decomposed, gate.qubits)
        assert global_phase_equal(original, rebuilt)

    def test_basis_gates_pass_through(self):
        g = Gate("cx", (0, 1))
        assert decompose_to_basis(g) == [g]

    def test_swap_is_three_cx(self):
        out = decompose_to_basis(Gate("swap", (0, 1)))
        assert [g.name for g in out] == ["cx", "cx", "cx"]

    def test_rzz_is_cx_rz_cx(self):
        out = decompose_to_basis(Gate("rzz", (0, 1), (0.4,)))
        assert [g.name for g in out] == ["cx", "rz", "cx"]
