"""QAOA mixer Hamiltonians, including the paper's future-work direction.

Section IX: "The custom mixers used in this version of QAOA [the Quantum
Alternating Operator Ansatz, Hadfield et al.] seem especially appropriate
to NchooseK problems with both hard and soft constraints."

Implemented mixers:

* :class:`TransverseFieldMixer` — the standard ``Σ X_i`` (e^{-iβX} = RX on
  every qubit); explores the full hypercube.
* :class:`XYRingMixer` — nearest-neighbour XY exchange
  ``Σ (X_i X_{i+1} + Y_i Y_{i+1}) / 2`` over a qubit ring.  XY exchange
  *conserves Hamming weight*, so a state initialized with exactly ``k``
  ones stays in the ``Σx = k`` subspace — the natural mixer for one-hot
  (``nck(..., {1})``) constraint groups, where it renders the hard
  constraint structurally unviolable instead of penalized.

The XY evolution is compiled per edge with the standard
``e^{-iβ(XX+YY)/2}`` two-qubit block (a partial iSWAP), decomposed into
RZ/SX/CX-compatible gates.

Each mixer has two forms.  ``initial_state_circuit`` and ``append_layer``
emit gates, for the transpiler and the gate-level reference simulator;
``initial_state`` and ``evolve`` act on a flat statevector directly, for
QAOA's simulation kernel (:func:`repro.circuit.qaoa.qaoa_probabilities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .statevector import StatevectorSimulator

#: Qubits per block of :meth:`TransverseFieldMixer.evolve` (16×16 matrices).
_RX_BLOCK = 4


class TransverseFieldMixer:
    """The standard QAOA mixer: an RX rotation on every qubit."""

    name = "transverse-field"

    def initial_state_circuit(self, n: int) -> Circuit:
        """Uniform superposition — H on every qubit."""
        circ = Circuit(n)
        for q in range(n):
            circ.add("h", q)
        return circ

    def append_layer(self, circ: Circuit, beta: float) -> None:
        for q in range(circ.num_qubits):
            circ.add("rx", q, 2.0 * beta)

    def initial_state(self, n: int) -> np.ndarray:
        """The flat statevector :meth:`initial_state_circuit` prepares."""
        return np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)

    def evolve(self, psi: np.ndarray, beta: float) -> np.ndarray:
        """Apply one layer, ``RX(2β)`` on every qubit, to the flat state ``psi``.

        ``RX(2β)^{⊗n}`` factors into blocks of up to :data:`_RX_BLOCK`
        neighbouring qubits, each one matrix product with its Kronecker
        power.  On 12–16 qubits that is 2–4× faster than one butterfly
        per qubit, whose small inner strides numpy loops over slowly.
        """
        c, s = math.cos(beta), -1j * math.sin(beta)
        n = psi.size.bit_length() - 1
        power = [np.array([[c, s], [s, c]])]  # power[k - 1] = RX(2β)^{⊗k}, symmetric
        while len(power) < min(_RX_BLOCK, n):
            power.append(np.kron(power[-1], power[0]))
        for q in range(0, n, _RX_BLOCK):
            k = min(_RX_BLOCK, n - q)
            rest = n - q - k  # qubits below the block (qubit 0 = MSB)
            if rest:
                psi = np.matmul(power[k - 1], psi.reshape(1 << q, 1 << k, 1 << rest))
            else:
                psi = psi.reshape(-1, 1 << k) @ power[k - 1]
            psi = psi.reshape(-1)
        return psi


@dataclass
class XYRingMixer:
    """Hamming-weight-preserving XY mixer over a ring of qubits.

    ``hamming_weight`` fixes the conserved excitation count of the
    initial state (default 1 — the one-hot case).
    """

    hamming_weight: int = 1

    name = "xy-ring"

    def initial_state_circuit(self, n: int) -> Circuit:
        """A computational basis state with exactly ``hamming_weight`` ones.

        A Dicke-state preparation would start in an even superposition of
        the subspace; a single basis state suffices because the XY ring
        mixes the subspace ergodically across layers.
        """
        if not 0 <= self.hamming_weight <= n:
            raise ValueError(
                f"hamming weight {self.hamming_weight} out of range for {n} qubits"
            )
        circ = Circuit(n)
        for q in range(self.hamming_weight):
            circ.add("x", q)
        return circ

    def initial_state(self, n: int) -> np.ndarray:
        """The flat statevector :meth:`initial_state_circuit` prepares."""
        return StatevectorSimulator().run(self.initial_state_circuit(n))

    def append_layer(self, circ: Circuit, beta: float) -> None:
        """One ring pass of ``e^{-iβ(X_iX_j + Y_iY_j)/2}`` blocks.

        Even pairs then odd pairs (brickwork) so the layer depth is
        constant; the closing (n−1, 0) edge completes the ring.
        """
        n = circ.num_qubits
        if n < 2:
            return
        edges = [(i, i + 1) for i in range(0, n - 1, 2)]
        edges += [(i, i + 1) for i in range(1, n - 1, 2)]
        if n > 2:
            edges.append((n - 1, 0))
        for a, b in edges:
            _append_xx_plus_yy(circ, a, b, beta)

    def evolve(self, psi: np.ndarray, beta: float) -> np.ndarray:
        """Apply one :meth:`append_layer` layer to the flat state ``psi``.

        The XY blocks are not diagonal in any fixed basis, so this runs
        the layer's gates through the statevector simulator.
        """
        circ = Circuit(psi.size.bit_length() - 1)
        self.append_layer(circ, beta)
        return StatevectorSimulator().run(circ, initial_state=psi)


def _append_xx_plus_yy(circ: Circuit, a: int, b: int, beta: float) -> None:
    """Append ``e^{-iβ(X_aX_b + Y_aY_b)/2}`` using RZZ-style primitives.

    Identity: with ``U = CX_{ab}``, ``(XX + YY)/2`` conjugates into
    single-qubit rotations; the textbook decomposition is

        e^{-iβ(XX+YY)/2} = CX(b,a) · [RX(β) ⊗ RZ-controlled phase] …

    We use the simpler route via two rotations in the rotated frame:
    ``e^{-iβ XX/2}`` and ``e^{-iβ YY/2}`` commute on two qubits, each
    compiling to a basis-change sandwich around ``RZZ(β)``.
    """
    # e^{-i (β/2) X⊗X}: H⊗H · RZZ(β) · H⊗H
    circ.add("h", a)
    circ.add("h", b)
    circ.add("rzz", (a, b), beta)
    circ.add("h", a)
    circ.add("h", b)
    # e^{-i (β/2) Y⊗Y}: (S†H)⊗(S†H) basis change = RZ(-π/2)·H each side
    for q in (a, b):
        circ.add("rz", q, -math.pi / 2.0)
        circ.add("h", q)
    circ.add("rzz", (a, b), beta)
    for q in (a, b):
        circ.add("h", q)
        circ.add("rz", q, math.pi / 2.0)


def get_mixer(name: str, **kwargs):
    """Mixer registry: ``"transverse-field"`` (default) or ``"xy-ring"``."""
    if name == "transverse-field":
        return TransverseFieldMixer()
    if name == "xy-ring":
        return XYRingMixer(**kwargs)
    raise ValueError(f"unknown mixer {name!r}")
