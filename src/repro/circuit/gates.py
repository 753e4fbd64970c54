"""Gate definitions for the circuit-model substrate.

A deliberately small, QAOA-sufficient gate set.  Unitaries are generated
on demand as dense complex matrices for the statevector simulator; the
transpiler works purely with gate names and qubit tuples.

The hardware basis follows IBM's Falcon/Hummingbird devices (the paper's
ibmq_brooklyn): ``{CX, RZ, SX, X}``.  Composite gates used by QAOA
(``H``, ``RX``, ``RZZ``, ``SWAP``) carry decompositions into that basis so
transpiled circuit depth is counted over what the machine actually runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: IBM heavy-hex devices natively execute only these gates.
BASIS_GATES = frozenset({"cx", "rz", "sx", "x"})

_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One gate application: name, target qubits, parameters."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        expected = GATE_ARITY.get(self.name)
        if expected is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != expected:
            raise ValueError(
                f"gate {self.name!r} takes {expected} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} applied to duplicate qubits {self.qubits}")
        if len(self.params) != GATE_PARAMS[self.name]:
            raise ValueError(
                f"gate {self.name!r} takes {GATE_PARAMS[self.name]} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """Dense unitary of this gate (2×2 or 4×4)."""
        return gate_matrix(self.name, self.params)


GATE_ARITY = {
    "h": 1,
    "x": 1,
    "y": 1,
    "z": 1,
    "sx": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "cx": 2,
    "cz": 2,
    "rzz": 2,
    "swap": 2,
}

GATE_PARAMS = {
    "h": 0,
    "x": 0,
    "y": 0,
    "z": 0,
    "sx": 0,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "cx": 0,
    "cz": 0,
    "rzz": 1,
    "swap": 0,
}


def gate_matrix(name: str, params: Iterable[float] = ()) -> np.ndarray:
    """Unitary matrix for gate ``name`` with ``params``.

    Two-qubit matrices use the convention that the *first* qubit of the
    gate is the most significant bit of the 2-qubit index.
    """
    params = tuple(params)
    if name == "h":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if name == "sx":
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    if name == "rx":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        (theta,) = params
        return np.array(
            [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
        )
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "rzz":
        (theta,) = params
        p = np.exp(-0.5j * theta)
        m = np.exp(0.5j * theta)
        return np.diag([p, m, m, p]).astype(complex)
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    raise ValueError(f"unknown gate {name!r}")


def decompose_to_basis(gate: Gate) -> list[Gate]:
    """Rewrite ``gate`` into :data:`BASIS_GATES` (up to global phase).

    * ``h  = rz(π/2) · sx · rz(π/2)``
    * ``rx(θ) = rz(π/2)·sx·rz(θ+π)·sx·rz(5π/2)`` — the standard U3 route;
      we use the equivalent 2-pulse form ``rz(-π/2)·sx·rz(π-θ)·sx·rz(-π/2)``
      is hardware-specific, so for depth purposes we emit the canonical
      ``rz,sx,rz,sx,rz`` five-gate train.
    * ``rzz(θ) = cx · rz(θ) · cx``
    * ``swap = cx · cx · cx``
    * ``cz = h(t) · cx · h(t)`` with h further decomposed.
    """
    name = gate.name
    if name in BASIS_GATES:
        return [gate]
    q = gate.qubits
    if name == "h":
        return [
            Gate("rz", q, (math.pi / 2,)),
            Gate("sx", q),
            Gate("rz", q, (math.pi / 2,)),
        ]
    if name == "rx":
        (theta,) = gate.params
        return [
            Gate("rz", q, (math.pi / 2,)),
            Gate("sx", q),
            Gate("rz", q, (theta + math.pi,)),
            Gate("sx", q),
            Gate("rz", q, (5 * math.pi / 2,)),
        ]
    if name == "ry":
        (theta,) = gate.params
        return [
            Gate("sx", q),
            Gate("rz", q, (theta + math.pi,)),
            Gate("sx", q),
            Gate("rz", q, (math.pi,)),
        ]
    if name == "y":
        return [Gate("rz", q, (math.pi,)), Gate("x", q)]
    if name == "z":
        return [Gate("rz", q, (math.pi,))]
    if name == "rzz":
        (theta,) = gate.params
        return [
            Gate("cx", q),
            Gate("rz", (q[1],), (theta,)),
            Gate("cx", q),
        ]
    if name == "swap":
        a, b = q
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if name == "cz":
        _a, b = q
        h_gates = decompose_to_basis(Gate("h", (b,)))
        return [*h_gates, Gate("cx", q), *h_gates]
    raise ValueError(f"no basis decomposition for {name!r}")
