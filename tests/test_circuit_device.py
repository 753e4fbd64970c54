"""Unit tests for the circuit-model device backend and its noise model."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    CircuitDevice,
    CircuitDeviceProfile,
    CircuitNoiseModel,
    CircuitTimingModel,
    NoiselessCircuitModel,
    Transpiler,
)
from repro.circuit import qaoa as qaoa_module
from repro.circuit.statevector import draw_counts
from repro.classical import ExactNckSolver
from repro.core import Env, SolutionQuality


def mvc_env() -> Env:
    env = Env()
    for e in [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]:
        env.nck(list(e), [1, 2])
    for v in "abcde":
        env.prefer_false(v)
    return env


@pytest.fixture(scope="module")
def noiseless_device():
    return CircuitDevice(CircuitDeviceProfile.brooklyn(noiseless=True))


class TestNoiseModel:
    def test_fidelity_decreases_with_gates(self):
        noise = CircuitNoiseModel()
        short = Circuit(2)
        short.add("cx", (0, 1))
        long = Circuit(2)
        for _ in range(20):
            long.add("cx", (0, 1))
        assert noise.circuit_fidelity(long) < noise.circuit_fidelity(short)

    def test_two_qubit_gates_dominate(self):
        noise = CircuitNoiseModel(heterogeneity=0.0)
        one_q = Circuit(1)
        one_q.add("x", 0)
        two_q = Circuit(2)
        two_q.add("cx", (0, 1))
        assert noise.circuit_fidelity(two_q) < noise.circuit_fidelity(one_q)

    def test_heterogeneity_sorted_good_first(self):
        """Low-index qubits are the good ones (small problems get them)."""
        noise = CircuitNoiseModel()
        assert noise.qubit_quality[0] <= noise.qubit_quality[-1]

    @pytest.mark.parametrize("seed", range(8))
    def test_fidelity_matches_per_gate_loop_bit_for_bit(self, seed):
        """The vectorized fidelity is the float a per-gate loop returns."""

        def per_gate_loop(noise, circuit):
            log_f = 0.0
            for gate in circuit.gates:
                base = noise.p1 if gate.num_qubits == 1 else noise.p2
                mult = float(
                    np.mean([noise.qubit_quality[q % noise.num_qubits] for q in gate.qubits])
                )
                p_err = min(base * mult, 0.999)
                log_f += np.log1p(-p_err)
            return float(np.exp(log_f))

        rng = np.random.default_rng(seed)
        noise = CircuitNoiseModel(
            p1=float(rng.uniform(0.0, 0.05)),
            p2=float(rng.uniform(0.0, 0.9)),  # large enough to hit the 0.999 cap
            heterogeneity=float(rng.uniform(0.0, 2.0)),
            num_qubits=int(rng.integers(2, 66)),
            seed=seed,
        )
        width = int(rng.integers(2, 100))  # wider than the device: indices wrap
        circ = Circuit(width)
        for _ in range(int(rng.integers(0, 2000))):
            if rng.random() < 0.4:
                a, b = rng.choice(width, size=2, replace=False)
                circ.add("cx", (int(a), int(b)))
            else:
                circ.add("rz", int(rng.integers(width)), 0.5)
        assert noise.circuit_fidelity(circ) == per_gate_loop(noise, circ)

    def test_apply_to_counts_preserves_shots(self):
        noise = CircuitNoiseModel()
        circ = Circuit(3)
        for _ in range(5):
            circ.add("cx", (0, 1))
        counts = {0: 500, 7: 500}
        fidelity = noise.circuit_fidelity(circ)
        out = noise.apply_to_counts(counts, 3, fidelity, np.random.default_rng(0))
        assert sum(out.values()) == 1000

    @pytest.mark.parametrize("num_qubits", [4, 7, 12, 16])
    @pytest.mark.parametrize("fidelity", [0.0, 0.37, 0.93, 1.0])
    def test_apply_to_counts_matches_per_shot_tally(self, num_qubits, fidelity):
        """The one-pass tally returns the per-shot loop's histogram, keys in
        the same order, and leaves the generator where the loop left it."""

        def per_shot_tally(noise, counts, num_qubits, fidelity, rng):
            out: dict[int, int] = {}
            size = 1 << num_qubits
            for state, c in counts.items():
                survived = rng.binomial(c, fidelity)
                lost = c - survived
                # Depolarized shots: uniform over the computational basis.
                for s in rng.integers(0, size, size=lost):
                    s = int(s)
                    out[s] = out.get(s, 0) + 1
                # Readout flips on surviving shots (vectorized per state).
                if survived:
                    bits = np.array(
                        [(state >> (num_qubits - 1 - i)) & 1 for i in range(num_qubits)],
                        dtype=np.int8,
                    )
                    flips = rng.random((survived, num_qubits)) < noise.p_readout
                    noisy = np.bitwise_xor(bits[None, :], flips.astype(np.int8))
                    weights = 1 << np.arange(num_qubits - 1, -1, -1)
                    states = noisy @ weights
                    for s in states:
                        s = int(s)
                        out[s] = out.get(s, 0) + 1
            return out

        noise = CircuitNoiseModel(p_readout=0.08)
        source = np.random.default_rng(num_qubits)
        probs = source.dirichlet(np.full(1 << num_qubits, 0.05))
        histograms = [draw_counts(probs, 4000, source), {}]
        for counts in histograms:
            expected_rng = np.random.default_rng(11)
            actual_rng = np.random.default_rng(11)
            expected = per_shot_tally(noise, counts, num_qubits, fidelity, expected_rng)
            actual = noise.apply_to_counts(counts, num_qubits, fidelity, actual_rng)
            assert list(actual.items()) == list(expected.items())
            assert all(type(k) is int and type(v) is int for k, v in actual.items())
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_noiseless_identity(self):
        model = NoiselessCircuitModel()
        circ = Circuit(2)
        circ.add("cx", (0, 1))
        assert model.circuit_fidelity(circ) == 1.0
        assert model.fidelity(np.array([[0, 1]])) == 1.0
        counts = {1: 10}
        assert model.apply_to_counts(counts, 2, 1.0, None) == counts


class TestTimingModel:
    def test_job_time_in_paper_range(self):
        """Jobs took between 7 and 23 seconds (Section VIII-C)."""
        t = CircuitTimingModel()
        rng = np.random.default_rng(0)
        times = [t.sample_job_time(rng) for _ in range(200)]
        assert min(times) >= 7.0
        assert max(times) <= 23.0

    def test_total_about_500s(self):
        """'All together, our jobs spent roughly 500 seconds.'"""
        t = CircuitTimingModel()
        total = t.total_time(30, np.random.default_rng(1))
        assert 300 <= total["total"] <= 700

    def test_breakdown_fields(self):
        total = CircuitTimingModel().total_time(25, np.random.default_rng(2))
        assert set(total) == {
            "num_jobs",
            "quantum_execution",
            "server_overhead",
            "classical_optimization",
            "total",
        }


class TestDevice:
    def test_solves_mvc_optimally(self, noiseless_device):
        env = mvc_env()
        truth = ExactNckSolver().max_soft_satisfiable(env)
        ss = noiseless_device.sample(env, rng=np.random.default_rng(0))
        assert ss.best.quality(truth) is SolutionQuality.OPTIMAL
        assert ss.metadata["execution_model"] == "exact"

    def test_single_result_semantics(self, noiseless_device):
        """QAOA 'returns a single result' (Section VIII-B)."""
        ss = noiseless_device.sample(mvc_env(), rng=np.random.default_rng(1))
        assert len(ss) == 1

    def test_metadata_fields(self, noiseless_device):
        ss = noiseless_device.sample(mvc_env(), rng=np.random.default_rng(2))
        for key in ("qubits_used", "depth", "num_swaps", "fidelity", "logical_qubits"):
            assert key in ss.metadata
        assert ss.metadata["depth"] > 0

    def test_too_many_variables_rejected(self, noiseless_device):
        env = Env()
        env.nck([f"v{i}" for i in range(70)], [1])
        with pytest.raises(ValueError, match="65"):
            noiseless_device.sample(env)

    def test_structural_mode_above_limit(self):
        device = CircuitDevice(CircuitDeviceProfile.brooklyn(noiseless=True))
        device.profile.exact_simulation_limit = 4
        env = mvc_env()  # 5 variables > limit
        ss = device.sample(env, rng=np.random.default_rng(3))
        assert ss.metadata["execution_model"] == "structural"
        # Noiseless structural mode still finds the optimum on 5 vars.
        truth = ExactNckSolver().max_soft_satisfiable(env)
        assert ss.best.quality(truth) is SolutionQuality.OPTIMAL

    def test_ancillas_stripped(self, noiseless_device):
        env = Env()
        env.nck(["a", "b", "c"], [0, 2])
        ss = noiseless_device.sample(env, rng=np.random.default_rng(4))
        assert set(ss.best.assignment) == {"a", "b", "c"}

    def test_timing_attached(self, noiseless_device):
        ss = noiseless_device.sample(mvc_env(), rng=np.random.default_rng(5))
        assert ss.timing["total"] > 0
        assert 25 <= ss.timing["num_jobs"] <= 35


class TestWorkPerJob:
    def test_exact_job_computes_each_quantity_once(self, monkeypatch):
        """One exact-path job: one transpile, one fidelity, one cost
        diagonal, and no basis-gate circuit built or scheduled."""
        calls = {"transpile": 0, "fidelity": 0, "cost_diagonal": 0, "decomposed": 0, "depth": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Transpiler, "transpile", counted("transpile", Transpiler.transpile))
        monkeypatch.setattr(
            CircuitNoiseModel, "fidelity", counted("fidelity", CircuitNoiseModel.fidelity)
        )
        monkeypatch.setattr(
            qaoa_module, "cost_diagonal", counted("cost_diagonal", qaoa_module.cost_diagonal)
        )
        monkeypatch.setattr(Circuit, "decomposed", counted("decomposed", Circuit.decomposed))
        monkeypatch.setattr(Circuit, "depth", counted("depth", Circuit.depth))
        device = CircuitDevice(CircuitDeviceProfile.brooklyn())
        ss = device.sample(mvc_env(), rng=np.random.default_rng(0))
        assert ss.metadata["execution_model"] == "exact"
        assert calls == {
            "transpile": 1, "fidelity": 1, "cost_diagonal": 1, "decomposed": 0, "depth": 0
        }


class TestEmptyAndEdgePaths:
    def test_empty_program(self, noiseless_device):
        env = Env()  # no constraints at all
        ss = noiseless_device.sample(env, rng=np.random.default_rng(6))
        assert len(ss) == 1

    def test_solve_matches_sample_best(self, noiseless_device):
        env = mvc_env()
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        sol = noiseless_device.solve(env, rng=rng_a)
        ss = noiseless_device.sample(env, rng=rng_b)
        assert sol.assignment == ss.best.assignment


@pytest.mark.slow
def test_structural_model_labels_like_the_exact_path():
    """The structural surrogate against exact noisy QAOA where both can run.

    Every Figures 8–10 study point whose QUBO fits the exact-simulation
    limit (16 points, ≤ 16 variables) runs at seeds 0–5 on both models,
    each from the same stream: point ``i`` at seed ``s`` draws from
    ``SeedSequence(s).spawn(1)[0].spawn(n_points)[i]``, the first-pass
    stream of the pipebench qaoa-sweep workload.  The structural device
    is the exact one with its exact-simulation limit set to 0.  The
    bounds are the counts measured when this test was written: exact
    95/0/1 and structural 89/3/4 optimal/suboptimal/incorrect, the same
    label on 88 of 96 runs.  A change that widens the gap fails here.
    """
    from collections import Counter

    from repro.experiments import fig8_10

    devices = {
        "exact": CircuitDevice(CircuitDeviceProfile.brooklyn()),
        "structural": CircuitDevice(CircuitDeviceProfile.brooklyn()),
    }
    devices["structural"].profile.exact_simulation_limit = 0
    limit = devices["exact"].profile.exact_simulation_limit
    points = fig8_10.default_points()
    simulable = [
        i
        for i, point in enumerate(points)
        if point.instance.build_env().to_qubo().qubo.num_variables <= limit
    ]
    assert len(simulable) == 16

    seeds = range(6)
    tallies = {name: Counter() for name in devices}
    same = 0
    for seed in seeds:
        streams = np.random.SeedSequence(seed).spawn(1)[0].spawn(len(points))
        for i in simulable:
            labels = {
                name: fig8_10.run_point(
                    device, points[i], np.random.default_rng(streams[i])
                ).quality
                for name, device in devices.items()
            }
            for name, label in labels.items():
                tallies[name][label] += 1
            same += labels["exact"] == labels["structural"]

    runs = len(seeds) * len(simulable)
    for name, tally in tallies.items():
        print(
            f"{name:>10}: "
            + ", ".join(f"{tally[q]} {q}" for q in ("optimal", "suboptimal", "incorrect"))
        )
    print(f"same label in {same} of {runs} runs")
    assert tallies["exact"]["optimal"] >= 95
    assert tallies["structural"]["optimal"] >= 89
    assert same >= 88
