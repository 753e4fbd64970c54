"""Unit tests for the Circuit container."""

import pytest

from repro.circuit import Circuit, Gate


class TestConstruction:
    def test_add_convenience(self):
        c = Circuit(2)
        c.add("h", 0)
        c.add("rzz", (0, 1), 0.5)
        assert c.num_gates == 2

    def test_out_of_range_rejected(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.add("h", 5)

    def test_needs_positive_qubits(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_init_with_gates(self):
        c = Circuit(2, [Gate("h", (0,)), Gate("cx", (0, 1))])
        assert c.num_gates == 2


class TestDepth:
    def test_parallel_gates_share_layer(self):
        c = Circuit(4)
        for q in range(4):
            c.add("h", q)
        assert c.depth() == 1

    def test_sequential_gates_stack(self):
        c = Circuit(1)
        for _ in range(5):
            c.add("x", 0)
        assert c.depth() == 5

    def test_two_qubit_gate_synchronizes(self):
        c = Circuit(2)
        c.add("x", 0)
        c.add("x", 0)
        c.add("cx", (0, 1))  # starts at layer 3
        c.add("x", 1)  # layer 4
        assert c.depth() == 4

    def test_empty_circuit(self):
        assert Circuit(3).depth() == 0

    def test_disjoint_two_qubit_gates_parallel(self):
        c = Circuit(4)
        c.add("cx", (0, 1))
        c.add("cx", (2, 3))
        assert c.depth() == 1


class TestCounts:
    def test_gate_counts(self):
        c = Circuit(2)
        c.add("h", 0)
        c.add("h", 1)
        c.add("cx", (0, 1))
        assert c.gate_counts() == {"h": 2, "cx": 1}

    def test_two_qubit_count(self):
        c = Circuit(3)
        c.add("cx", (0, 1))
        c.add("swap", (1, 2))
        c.add("x", 0)
        assert c.num_two_qubit_gates() == 2


class TestTransformations:
    def test_decomposed_is_basis_only(self):
        c = Circuit(2)
        c.add("h", 0)
        c.add("rzz", (0, 1), 0.3)
        c.add("rx", 1, 0.7)
        d = c.decomposed()
        assert d.is_basis_only()
        assert not c.is_basis_only()

    def test_decomposed_depth_at_least_original(self):
        c = Circuit(2)
        c.add("h", 0)
        c.add("rzz", (0, 1), 0.3)
        assert c.decomposed().depth() >= c.depth()

    def test_iteration(self):
        c = Circuit(1, [Gate("x", (0,))])
        assert [g.name for g in c] == ["x"]
        assert len(c) == 1
