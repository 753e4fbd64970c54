"""Property-based tests for the hardware substrates.

Invariants checked over randomized inputs:

* minor embeddings returned by ``find_embedding`` are always valid
  (disjoint connected chains, all couplers present);
* transpiled circuits only apply two-qubit gates across couplers and
  preserve measurement statistics up to the final layout permutation;
* simulated-annealing energies never beat the exact ground state, and
  deterministic seeding reproduces samples exactly.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annealing import find_embedding, pegasus_graph
from repro.annealing.sampler import (
    AnnealSchedule,
    ExactIsingSolver,
    SimulatedAnnealingSampler,
)
from repro.circuit import Circuit, StatevectorSimulator, Transpiler, linear_coupling
from repro.qubo import IsingModel

TARGET = pegasus_graph(4)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    p = draw(st.floats(min_value=0.2, max_value=0.7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = nx.gnp_random_graph(n, p, seed=seed)
    return nx.relabel_nodes(g, {i: f"n{i}" for i in g.nodes})


@st.composite
def small_ising(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    names = [f"s{i}" for i in range(n)]
    h = {
        name: draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        for name in names
        if draw(st.booleans())
    }
    J = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                J[(names[i], names[j])] = draw(
                    st.floats(min_value=-2, max_value=2, allow_nan=False)
                )
    return IsingModel(h=h, J=J)


class TestEmbeddingProperties:
    @given(small_graphs())
    @settings(max_examples=15, deadline=None)
    def test_embeddings_always_valid(self, g):
        emb = find_embedding(g, TARGET, np.random.default_rng(0))
        emb.validate(g, TARGET)  # raises on any violation

    @given(small_graphs())
    @settings(max_examples=10, deadline=None)
    def test_chain_count_matches_variables(self, g):
        emb = find_embedding(g, TARGET, np.random.default_rng(1))
        assert set(emb.chains) == set(g.nodes)


class TestTranspilerProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_routed_gates_respect_coupling(self, seed):
        rng = np.random.default_rng(seed)
        coupling = linear_coupling(5)
        circ = Circuit(4)
        for _ in range(12):
            if rng.random() < 0.5:
                circ.add("rx", int(rng.integers(4)), float(rng.normal()))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                circ.add("rzz", (int(a), int(b)), float(rng.normal()))
        result = Transpiler(coupling).transpile(circ)
        for g in result.circuit.gates:
            if g.num_qubits == 2:
                assert coupling.has_edge(*g.qubits)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_distribution_preserved_up_to_layout(self, seed):
        rng = np.random.default_rng(seed)
        coupling = linear_coupling(4)
        circ = Circuit(4)
        for _ in range(10):
            if rng.random() < 0.5:
                circ.add("rx", int(rng.integers(4)), float(rng.normal()))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                circ.add("rzz", (int(a), int(b)), float(rng.normal()))
        result = Transpiler(coupling).transpile(circ)
        sim = StatevectorSimulator()
        p_logical = sim.probabilities(circ)
        p_physical = sim.probabilities(result.circuit)
        n = 4
        for state in range(2**n):
            bits = [(state >> (n - 1 - i)) & 1 for i in range(n)]
            phys = 0
            for lq, pq in result.final_layout.items():
                if bits[lq]:
                    phys |= 1 << (result.circuit.num_qubits - 1 - pq)
            assert p_physical[phys] == pytest.approx(p_logical[state], abs=1e-9)


class TestSamplerProperties:
    @given(small_ising())
    @settings(max_examples=15, deadline=None)
    def test_never_below_ground(self, model):
        if not model.variables:
            return
        exact, _ = ExactIsingSolver().solve(model)
        result = SimulatedAnnealingSampler(AnnealSchedule(num_sweeps=32)).sample(
            model, num_reads=8, rng=np.random.default_rng(0)
        )
        assert result.energies.min() >= exact - 1e-9

    @given(small_ising(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_seeded_reproducibility(self, model, seed):
        if not model.variables:
            return
        sampler = SimulatedAnnealingSampler(AnnealSchedule(num_sweeps=16))
        r1 = sampler.sample(model, 4, np.random.default_rng(seed))
        r2 = sampler.sample(model, 4, np.random.default_rng(seed))
        assert np.array_equal(r1.spins, r2.spins)
