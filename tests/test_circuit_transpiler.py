"""Unit tests for layout + SWAP routing transpilation."""

import networkx as nx
import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    Gate,
    Transpiler,
    brooklyn_coupling_map,
    full_coupling,
    heavy_hex_coupling,
    linear_coupling,
)


def random_circuit(rng, n, depth) -> Circuit:
    c = Circuit(n)
    for _ in range(depth):
        if rng.random() < 0.5:
            c.add("rx", int(rng.integers(n)), float(rng.normal()))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.add("rzz", (int(a), int(b)), float(rng.normal()))
    return c


def assert_respects_coupling(circuit: Circuit, coupling: nx.Graph):
    for g in circuit.gates:
        if g.num_qubits == 2:
            assert coupling.has_edge(*g.qubits), f"{g} not on a coupler"


class TestCouplingMaps:
    def test_brooklyn_65(self):
        g = brooklyn_coupling_map()
        assert g.number_of_nodes() == 65
        assert max(dict(g.degree).values()) <= 3
        assert nx.is_connected(g)

    def test_heavy_hex_validation(self):
        with pytest.raises(ValueError):
            heavy_hex_coupling(row_lengths=(1,))

    def test_linear_and_full(self):
        assert linear_coupling(5).number_of_edges() == 4
        assert full_coupling(5).number_of_edges() == 10


class TestTranspile:
    def test_output_respects_coupling(self):
        rng = np.random.default_rng(0)
        coupling = brooklyn_coupling_map()
        transpiler = Transpiler(coupling)
        for trial in range(3):
            circ = random_circuit(rng, 8, 30)
            result = transpiler.transpile(circ)
            assert_respects_coupling(result.circuit, coupling)

    def test_output_is_basis_only(self):
        transpiler = Transpiler(brooklyn_coupling_map())
        circ = Circuit(3)
        circ.add("h", 0)
        circ.add("rzz", (0, 2), 0.4)
        result = transpiler.transpile(circ)
        assert result.circuit.is_basis_only()

    def test_adjacent_gates_need_no_swaps(self):
        coupling = linear_coupling(4)
        transpiler = Transpiler(coupling)
        circ = Circuit(2)
        circ.add("rzz", (0, 1), 0.3)
        result = transpiler.transpile(circ)
        assert result.num_swaps == 0

    def test_distant_gates_need_swaps(self):
        """On a line, interacting a triangle of qubits forces swaps."""
        coupling = linear_coupling(6)
        transpiler = Transpiler(coupling)
        circ = Circuit(3)
        circ.add("rzz", (0, 1), 0.1)
        circ.add("rzz", (1, 2), 0.1)
        circ.add("rzz", (0, 2), 0.1)
        # Repeat to defeat any lucky layout.
        for _ in range(3):
            circ.add("rzz", (0, 1), 0.1)
            circ.add("rzz", (1, 2), 0.1)
            circ.add("rzz", (0, 2), 0.1)
        result = transpiler.transpile(circ)
        assert result.num_swaps > 0
        assert_respects_coupling(result.circuit, coupling)

    def test_full_coupling_never_swaps(self):
        rng = np.random.default_rng(1)
        transpiler = Transpiler(full_coupling(8))
        circ = random_circuit(rng, 8, 40)
        assert transpiler.transpile(circ).num_swaps == 0

    def test_too_many_qubits_rejected(self):
        transpiler = Transpiler(linear_coupling(3))
        with pytest.raises(ValueError):
            transpiler.transpile(Circuit(4))

    def test_layout_covers_all_logical_qubits(self):
        transpiler = Transpiler(brooklyn_coupling_map())
        circ = random_circuit(np.random.default_rng(2), 6, 20)
        result = transpiler.transpile(circ)
        assert set(result.initial_layout) == set(range(6))
        assert len(set(result.initial_layout.values())) == 6

    def test_semantics_preserved(self):
        """Transpiled circuit computes the same distribution, modulo the
        final layout permutation."""
        from repro.circuit import StatevectorSimulator

        rng = np.random.default_rng(3)
        coupling = linear_coupling(4)
        transpiler = Transpiler(coupling)
        circ = random_circuit(rng, 4, 12)
        result = transpiler.transpile(circ)

        sim = StatevectorSimulator()
        probs_logical = sim.probabilities(circ)
        probs_physical = sim.probabilities(result.circuit)

        n = 4
        # Map each logical basis state through the final layout.
        for logical_state in range(2**n):
            bits = [(logical_state >> (n - 1 - i)) & 1 for i in range(n)]
            phys_state = 0
            for lq, pq in result.final_layout.items():
                if bits[lq]:
                    phys_state |= 1 << (result.circuit.num_qubits - 1 - pq)
            assert probs_physical[phys_state] == pytest.approx(
                probs_logical[logical_state], abs=1e-9
            )

    def test_depth_growth_on_sparse_coupling(self):
        """The same circuit is deeper on a line than with full coupling —
        the paper's routing-cost mechanism."""
        rng = np.random.default_rng(4)
        circ = random_circuit(rng, 6, 30)
        line = Transpiler(linear_coupling(6)).transpile(circ)
        full = Transpiler(full_coupling(6)).transpile(circ)
        assert line.depth >= full.depth
