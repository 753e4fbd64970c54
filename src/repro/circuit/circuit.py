"""Quantum circuit container with depth and gate-count accounting.

Circuit *depth* — the paper's Figure 9/10 metric, "the number of gates in
the longest path of a single QAOA circuit" — is computed by the usual
as-soon-as-possible scheduling: each gate starts one layer after the
latest-finishing gate sharing any of its qubits.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .gates import BASIS_GATES, Gate, decompose_to_basis


class Circuit:
    """An ordered gate list over ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()) -> None:
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []
        for g in gates:
            self.append(g)

    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> None:
        if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
            raise ValueError(
                f"gate {gate.name} on {gate.qubits} out of range for "
                f"{self.num_qubits} qubits"
            )
        self.gates.append(gate)

    def add(self, name: str, qubits: int | Sequence[int], *params: float) -> None:
        """Convenience: ``circ.add("rzz", (0, 1), theta)``."""
        if isinstance(qubits, int):
            qubits = (qubits,)
        self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.append(g)

    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def gate_counts(self) -> dict[str, int]:
        return dict(Counter(g.name for g in self.gates))

    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self.gates if g.num_qubits == 2)

    def depth(self) -> int:
        """ASAP-scheduled circuit depth (layers of the longest path)."""
        finish = [0] * self.num_qubits
        depth = 0
        for g in self.gates:
            start = max(finish[q] for q in g.qubits)
            for q in g.qubits:
                finish[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    # ------------------------------------------------------------------
    def decomposed(self) -> "Circuit":
        """This circuit rewritten into the hardware basis gate set."""
        out = Circuit(self.num_qubits)
        for g in self.gates:
            out.extend(decompose_to_basis(g))
        return out

    def is_basis_only(self) -> bool:
        return all(g.name in BASIS_GATES for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.num_qubits} qubits, {self.num_gates} gates, "
            f"depth {self.depth()})"
        )
