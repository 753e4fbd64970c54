"""Dense statevector simulation of circuits.

The state of ``n`` qubits is a complex array of shape ``(2,) * n`` with
axis ``i`` holding qubit ``i`` (qubit 0 = most significant bit of the
flattened index).  Gates apply via :func:`numpy.tensordot` against the
target axes — one BLAS call per gate, no Python loop over amplitudes.

This is the gate-level reference: it runs any circuit the package
builds.  QAOA's optimizer loop uses it only for the XY-ring mixer's
layer; :func:`repro.circuit.qaoa.qaoa_probabilities` applies the phase
separator as one diagonal multiply, and the tests hold the two paths to
agreement within 1e-12.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .gates import Gate

#: Hard cap: a 26-qubit dense state is ~1 GiB; past that, refuse.
MAX_SIMULATED_QUBITS = 26


class StatevectorSimulator:
    """Exact (noiseless) statevector execution."""

    name = "statevector"

    def run(self, circuit: Circuit, initial_state: np.ndarray | None = None) -> np.ndarray:
        """Final state as a flat array of ``2**n`` amplitudes."""
        n = circuit.num_qubits
        if n > MAX_SIMULATED_QUBITS:
            raise ValueError(
                f"{n} qubits exceed the dense simulation limit "
                f"({MAX_SIMULATED_QUBITS}); use the structural execution model"
            )
        if initial_state is None:
            state = np.zeros((2,) * n, dtype=complex)
            state[(0,) * n] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).reshape((2,) * n).copy()
            norm = np.linalg.norm(state)
            if not np.isclose(norm, 1.0, atol=1e-9):
                raise ValueError(f"initial state is not normalized (|ψ| = {norm:g})")

        for gate in circuit.gates:
            state = _apply_gate(state, gate)
        return state.reshape(-1)

    def probabilities(self, circuit: Circuit) -> np.ndarray:
        """Measurement probabilities over all ``2**n`` basis states."""
        amps = self.run(circuit)
        return (amps.real**2 + amps.imag**2).astype(float)

    def expectation_diagonal(self, circuit: Circuit, diagonal: np.ndarray) -> float:
        """⟨ψ|D|ψ⟩ for a diagonal observable given as its diagonal vector.

        The gate-level reference for QAOA cost expectations: the Ising
        Hamiltonian is diagonal in the computational basis.
        """
        probs = self.probabilities(circuit)
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape != probs.shape:
            raise ValueError(
                f"diagonal has shape {diagonal.shape}, expected {probs.shape}"
            )
        return float(probs @ diagonal)


def draw_counts(
    probs: np.ndarray, shots: int, rng: np.random.Generator
) -> dict[int, int]:
    """Multinomial sample of ``shots`` measurements from ``probs``.

    Keys are the basis-state indices drawn at least once, ascending.
    """
    probs = probs / probs.sum()  # guard against rounding drift
    counts = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(counts)
    return dict(zip(drawn.tolist(), counts[drawn].tolist()))


def _apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to the tensored state in place of its target axes."""
    n = state.ndim
    if gate.num_qubits == 1:
        U = gate.matrix()
        (q,) = gate.qubits
        state = np.tensordot(U, state, axes=([1], [q]))
        # tensordot moved the target axis to the front; restore order.
        return np.moveaxis(state, 0, q)
    U = gate.matrix().reshape(2, 2, 2, 2)
    q0, q1 = gate.qubits
    state = np.tensordot(U, state, axes=([2, 3], [q0, q1]))
    return np.moveaxis(state, (0, 1), (q0, q1))


def basis_index_to_bits(index: int, num_qubits: int) -> np.ndarray:
    """Basis-state index → bit array (qubit 0 = most significant)."""
    return np.array(
        [(index >> (num_qubits - 1 - i)) & 1 for i in range(num_qubits)], dtype=np.int8
    )


def bits_to_basis_index(bits: np.ndarray) -> int:
    """Inverse of :func:`basis_index_to_bits`."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index
