"""Unit tests for the QAOA driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    QAOA,
    StatevectorSimulator,
    TransverseFieldMixer,
    XYRingMixer,
    cost_diagonal,
    qaoa_circuit,
    qaoa_probabilities,
)
from repro.circuit.statevector import draw_counts
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


def random_model(n: int, couplers: str, levels: str, seed: int) -> IsingModel:
    """A seeded Ising model on ``s0..s{n-1}``.

    ``couplers`` is "empty", "sparse" (about a fifth of the pairs) or
    "dense" (every pair); ``levels`` "spread" draws normal coefficients,
    "repeated" small multiples of 0.5, so energy levels repeat and the
    offset puts one at exactly zero.
    """
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(n)]
    density = {"empty": 0.0, "sparse": 0.2, "dense": 1.0}[couplers]

    def coefficient() -> float:
        if levels == "spread":
            return float(rng.normal())
        return 0.5 * float(rng.choice([-2, -1, 1, 2]))

    h = {v: coefficient() for v in names}
    J = {
        (names[i], names[j]): coefficient()
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    model = IsingModel(h=h, J=J)
    if levels == "repeated":
        model.offset = -float(cost_diagonal(model, tuple(names))[0])  # state 0 at zero
    else:
        model.offset = float(rng.normal())
    return model


def per_state_probabilities(diagonal, gammas, betas, mixer=None):
    """The QAOA kernel with one complex exponential per basis state."""
    mixer = mixer or TransverseFieldMixer()
    psi = mixer.initial_state(diagonal.size.bit_length() - 1)
    for gamma, beta in zip(gammas, betas):
        psi *= np.exp(-1j * gamma * diagonal)
        psi = mixer.evolve(psi, beta)
    return psi.real**2 + psi.imag**2


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestKernelsKeepTheirBits:
    """The coupler-sum diagonal and the per-level phase are the arithmetic
    they replaced, bit for bit.  Should numpy change the einsum's loop
    order, the diagonal test fails, as it should."""

    @pytest.mark.parametrize("levels", ["spread", "repeated"])
    @pytest.mark.parametrize("couplers", ["empty", "sparse", "dense"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_cost_diagonal_matches_the_einsum(self, n, couplers, levels):
        model = random_model(n, couplers, levels, seed=100 * n)
        variables = tuple(f"s{i}" for i in range(n))
        h, J = model.to_arrays(variables)
        spins = 1.0 - 2.0 * enumerate_assignments(n).astype(float)
        expected = spins @ h + np.einsum("si,ij,sj->s", spins, J, spins) + model.offset
        assert same_bits(cost_diagonal(model, variables), expected)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("levels", ["spread", "repeated"])
    @pytest.mark.parametrize("couplers", ["empty", "sparse", "dense"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 14, 16])
    def test_probabilities_match_the_per_state_phase(self, n, couplers, levels, layers):
        model = random_model(n, couplers, levels, seed=7 * n + layers)
        diagonal = cost_diagonal(model, tuple(f"s{i}" for i in range(n)))
        if levels == "repeated":
            assert diagonal[0] == 0.0
            assert n < 5 or np.unique(diagonal).size < diagonal.size
        rng = np.random.default_rng(n)
        gammas, betas = rng.uniform(-np.pi, np.pi, (2, layers))
        mixers = [None] + ([XYRingMixer(hamming_weight=n // 2)] if n <= 10 else [])
        for mixer in mixers:
            assert same_bits(
                qaoa_probabilities(diagonal, gammas, betas, mixer),
                per_state_probabilities(diagonal, gammas, betas, mixer),
            )

    @pytest.mark.parametrize(
        "n, layers, xy", [(3, 1, False), (6, 2, False), (9, 1, True), (12, 2, False)]
    )
    def test_optimizer_matches_the_per_state_phase(self, n, layers, xy):
        """Every COBYLA evaluation and the final draw."""
        model = random_model(n, "sparse", "repeated", seed=n)
        mixer = XYRingMixer(hamming_weight=n // 3) if xy else None
        diagonal = cost_diagonal(model, model.variables)
        seen = []
        result = QAOA(layers=layers, maxiter=12, mixer=mixer).optimize(
            model,
            rng=np.random.default_rng(n),
            callback=lambda params, value: seen.append((params.copy(), value)),
        )
        assert len(seen) == result.num_circuit_evaluations
        for params, value in seen:
            probs = per_state_probabilities(diagonal, params[:layers], params[layers:], mixer)
            assert value == float(probs @ diagonal)
        replay = np.random.default_rng(n)
        replay.uniform(0.0, np.pi / 4, layers)
        replay.uniform(np.pi / 8, 3 * np.pi / 8, layers)
        best = result.parameters
        probs = per_state_probabilities(diagonal, best[:layers], best[layers:], mixer)
        assert result.counts == draw_counts(probs, 4000, replay)


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
