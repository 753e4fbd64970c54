"""Unit tests for the annealing device backend (noise, timing, pipeline)."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.annealing import (
    AnnealingDevice,
    AnnealingDeviceProfile,
    AnnealTimingModel,
    ICENoiseModel,
    NoiselessModel,
)
from repro.annealing import device as device_module
from repro.classical import ExactNckSolver
from repro.core import Env, SampleSet, Solution, SolutionQuality
from repro.qubo import IsingModel


def mvc_env() -> Env:
    env = Env()
    for e in [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]:
        env.nck(list(e), [1, 2])
    for v in "abcde":
        env.prefer_false(v)
    return env


def repeated_soft_env() -> Env:
    """Collections that repeat a variable, under hard and soft constraints."""
    env = Env()
    env.nck(["a", "a", "b", "c"], [1, 2])
    env.nck(["b", "c", "c", "d"], [0, 3])
    env.nck(["a", "d", "e"], [1])
    env.nck(["b", "d", "e"], [0, 2])  # compiles with an ancilla
    env.nck(["c", "c", "e"], [2], soft=True)
    env.nck(["a", "b", "b"], [0], soft=True)
    for v in "abcde":
        env.prefer_true(v)
    return env


@pytest.fixture(scope="module")
def small_device():
    return AnnealingDevice(AnnealingDeviceProfile.small_test(m=4, noiseless=True))


class TestNoiseModels:
    def test_noiseless_is_identity(self):
        model = IsingModel(h={"a": 1.0}, J={("a", "b"): -0.5})
        out = NoiselessModel().apply(model, np.random.default_rng(0))
        assert out.h == model.h and out.J == model.J

    def test_ice_perturbs(self):
        model = IsingModel(h={"a": 1.0}, J={("a", "b"): -0.5})
        out = ICENoiseModel().apply(model, np.random.default_rng(0))
        assert out.h["a"] != model.h["a"]

    def test_ice_rescales_to_device_range(self):
        model = IsingModel(h={"a": 100.0}, J={("a", "b"): 50.0})
        noise = ICENoiseModel(h_offset_sigma=0.0, j_offset_sigma=0.0, gain_sigma=0.0)
        out = noise.apply(model, np.random.default_rng(0))
        assert abs(out.J[("a", "b")]) <= noise.j_range + 1e-9
        assert abs(out.h["a"]) <= noise.h_range + 1e-9

    def test_ice_preserves_ordering_statistically(self):
        """Zero-noise ICE preserves the energy landscape up to scale."""
        model = IsingModel(h={"a": 1.0, "b": -2.0}, J={("a", "b"): 0.5})
        noise = ICENoiseModel(h_offset_sigma=0.0, j_offset_sigma=0.0, gain_sigma=0.0)
        out = noise.apply(model, np.random.default_rng(0))
        s1 = {"a": 1, "b": -1}
        s2 = {"a": -1, "b": 1}
        assert (model.energy(s1) < model.energy(s2)) == (
            out.energy(s1) < out.energy(s2)
        )


class TestTimingModel:
    def test_paper_constants(self):
        """Section VIII-C: ~15 ms programming; 100 samples cost slightly
        less than the programming step; ≈30 ms per job on the QPU."""
        t = AnnealTimingModel()
        assert t.programming_time == pytest.approx(15e-3)
        sampling = 100 * t.sample_time()
        assert sampling < t.programming_time
        total = t.qpu_access_time(100)
        assert 0.02 <= total <= 0.04

    def test_breakdown_keys(self):
        b = AnnealTimingModel().breakdown(100)
        assert set(b) == {
            "programming",
            "sampling",
            "postprocessing",
            "client_prepare",
            "qpu_access",
        }

    def test_readout_dominates_anneal(self):
        """Readout is 3–4× the annealing time."""
        t = AnnealTimingModel()
        assert 3.0 <= t.readout_factor <= 4.0


class TestDevicePipeline:
    def test_solves_mvc_optimally(self, small_device):
        env = mvc_env()
        truth = ExactNckSolver().max_soft_satisfiable(env)
        ss = small_device.sample(env, num_reads=50, rng=np.random.default_rng(0))
        assert ss.best_quality(truth) is SolutionQuality.OPTIMAL

    def test_metadata(self, small_device):
        env = mvc_env()
        ss = small_device.sample(env, num_reads=10, rng=np.random.default_rng(1))
        assert ss.metadata["logical_variables"] == 5
        assert ss.metadata["physical_qubits"] >= 5
        assert "broken_chains" in ss.metadata

    def test_timing_attached(self, small_device):
        ss = small_device.sample(mvc_env(), num_reads=10, rng=np.random.default_rng(2))
        assert ss.timing["qpu_access"] > 0

    def test_num_reads_respected(self, small_device):
        ss = small_device.sample(mvc_env(), num_reads=17, rng=np.random.default_rng(3))
        assert len(ss) == 17

    def test_ancillas_stripped(self, small_device):
        env = Env()
        env.nck(["a", "b", "c"], [0, 2])  # XOR: compiles with an ancilla
        ss = small_device.sample(env, num_reads=10, rng=np.random.default_rng(4))
        assert set(ss.best.assignment) == {"a", "b", "c"}

    def test_program_and_embedding_reuse(self, small_device):
        env = mvc_env()
        program = env.to_qubo()
        embedding = small_device.embed(program, rng=np.random.default_rng(5))
        ss = small_device.sample(
            env,
            num_reads=10,
            rng=np.random.default_rng(6),
            program=program,
            embedding=embedding,
        )
        assert ss.metadata["physical_qubits"] == embedding.num_physical_qubits

    def test_solve_returns_best(self, small_device):
        sol = small_device.solve(mvc_env(), num_reads=30, rng=np.random.default_rng(7))
        assert sol.all_hard_satisfied

    def test_hard_only_problem(self, small_device):
        env = Env()
        env.nck(["a", "b", "c"], [1])
        ss = small_device.sample(env, num_reads=20, rng=np.random.default_rng(8))
        assert ss.best_quality(0) is SolutionQuality.OPTIMAL

    def test_energies_are_logical(self, small_device):
        """Reported energies come from the noiseless logical QUBO."""
        env = mvc_env()
        program = env.to_qubo()
        ss = small_device.sample(env, num_reads=10, rng=np.random.default_rng(9), program=program)
        for sol in ss:
            full = dict(sol.assignment)
            # Energy must equal the QUBO energy minimized over ancillas —
            # here there are none, so direct evaluation matches.
            assert sol.energy == pytest.approx(program.qubo.energy(full))


def from_assignment_reads(env, program, logical_vars, logical_bits, energies, backend):
    """The per-read scoring the one-product ``_solutions`` replaced."""
    solutions = []
    for r in range(len(logical_bits)):
        assignment = program.strip_ancillas(
            dict(zip(logical_vars, map(int, logical_bits[r])))
        )
        solutions.append(
            Solution.from_assignment(
                env, assignment, energy=float(energies[r]), backend=backend
            )
        )
    return solutions


def read_keys(solutions):
    return [
        (list(s.assignment.items()), s.energy, s.hard_satisfied, s.soft_satisfied)
        for s in solutions
    ]


class TestReadScoring:
    """A job's reads are scored in one product, equal to per-read scoring."""

    @pytest.fixture(scope="class")
    def noisy_device(self):
        # No post-processing, so the noisy reads keep their violations.
        return AnnealingDevice(AnnealingDeviceProfile.advantage41(), postprocess_sweeps=0)

    @pytest.mark.parametrize("make_env", [repeated_soft_env, mvc_env])
    def test_counts_totals_and_keys_match_the_env(self, noisy_device, make_env):
        env = make_env()
        program = env.to_qubo()
        ss = noisy_device.sample(
            env, num_reads=60, rng=np.random.default_rng(12), program=program
        )
        assert len(ss) == 60
        for sol in ss:
            counts = env.satisfied_counts(sol.assignment)
            assert (sol.hard_satisfied, sol.soft_satisfied) == counts
            assert sol.hard_total == len(env.hard_constraints)
            assert sol.soft_total == len(env.soft_constraints)
            assert list(sol.assignment) == list(program.variables)
        assert len({(s.hard_satisfied, s.soft_satisfied) for s in ss}) > 1

    def test_reads_and_order_equal_a_from_assignment_build(
        self, noisy_device, monkeypatch
    ):
        env = repeated_soft_env()
        program = env.to_qubo()
        assert program.ancillas
        calls = []
        real = device_module._solutions

        def recording(*args):
            out = real(*args)
            calls.append((args, list(out)))
            return out

        monkeypatch.setattr(device_module, "_solutions", recording)
        ss = noisy_device.sample(
            env, num_reads=80, rng=np.random.default_rng(13), program=program
        )
        (args, reads), = calls
        expected = from_assignment_reads(*args)
        assert read_keys(reads) == read_keys(expected) and reads == expected
        assert read_keys(ss) == read_keys(SampleSet(solutions=expected))

        # Every reachable TRUE-count, not only the annealer's reads.
        _, _, logical_vars, _, _, backend = args
        bits = np.random.default_rng(14).integers(0, 2, size=(300, len(logical_vars)))
        energies = np.random.default_rng(15).integers(0, 3, size=300).astype(float)
        got = real(env, program, logical_vars, bits.astype(np.int8), energies, backend)
        assert got == from_assignment_reads(env, program, logical_vars, bits, energies, backend)


class TestProfiles:
    def test_advantage_profile_scale(self):
        profile = AnnealingDeviceProfile.advantage41()
        assert profile.num_qubits > 5400
        assert isinstance(profile.noise, ICENoiseModel)

    def test_noiseless_profile(self):
        profile = AnnealingDeviceProfile.advantage41(noiseless=True)
        assert isinstance(profile.noise, NoiselessModel)


#: Counts the Pegasus P16 builds of one process that makes Advantage-4.1
#: profiles from two threads at once, again from the adapter, and then
#: through a two-worker service serving two tenants' annealing requests.
BUILD_COUNT_SCRIPT = """
import threading
from repro.annealing import device
from repro.problems import MinVertexCover, circulant_graph, vertex_scaling_graph
from repro.runtime.backends import AnnealingBackend
from repro.service import ServiceClient, ServiceConfig, SolveRequest

builds = 0
pegasus_graph = device.pegasus_graph

def counting_pegasus_graph(m=16):
    global builds
    builds += 1
    return pegasus_graph(m)

device.pegasus_graph = counting_pegasus_graph
threads = [threading.Thread(target=device.AnnealingDeviceProfile.advantage41) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not any(thread.is_alive() for thread in threads)
device.AnnealingDeviceProfile.advantage41(noiseless=True)
AnnealingBackend()
problems = {"a": MinVertexCover(vertex_scaling_graph(3)), "b": MinVertexCover(circulant_graph(9))}
with ServiceClient(ServiceConfig(workers=2)) as client:
    futures = [
        client.submit(SolveRequest(problem=problems[t], tenant=t, backends="annealing", seed=k))
        for k in range(2)
        for t in problems
    ]
    assert all(f.result(timeout=120).solution.all_hard_satisfied for f in futures)
print(builds)
"""


class TestSharedWorkingGraph:
    def test_a_process_builds_the_advantage_graph_once(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_COUNT_SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_profiles_share_one_frozen_graph(self):
        topology = AnnealingDeviceProfile.advantage41().topology
        assert topology is AnnealingDeviceProfile.advantage41(noiseless=True).topology
        with pytest.raises(nx.NetworkXError):
            topology.add_edge(0, 1)

    @pytest.mark.parametrize("factory, seed", [("advantage41", 41), ("dwave2000q", 2000)])
    def test_shared_graph_is_the_seeded_build(self, factory, seed):
        make = getattr(AnnealingDeviceProfile, factory)
        shared = make().topology
        fresh = make(rng=np.random.default_rng(seed)).topology
        assert fresh is not shared and not nx.is_frozen(fresh)
        assert set(fresh.nodes) == set(shared.nodes)
        assert {frozenset(e) for e in fresh.edges} == {frozenset(e) for e in shared.edges}


class TestDwave2000QProfile:
    def test_scale_and_topology(self):
        profile = AnnealingDeviceProfile.dwave2000q()
        assert profile.topology.graph["family"] == "chimera"
        assert 1950 <= profile.num_qubits <= 2048
        assert max(dict(profile.topology.degree).values()) <= 6

    def test_solves_small_problem(self):
        device = AnnealingDevice(AnnealingDeviceProfile.dwave2000q(noiseless=True))
        env = mvc_env()
        truth = ExactNckSolver().max_soft_satisfiable(env)
        ss = device.sample(env, num_reads=30, rng=np.random.default_rng(0))
        assert ss.best_quality(truth) is SolutionQuality.OPTIMAL

    def test_longer_chains_than_pegasus(self):
        """The cross-generation claim: Chimera needs more physical qubits."""
        env = mvc_env()
        program = env.to_qubo()
        rng = np.random.default_rng(1)
        adv = AnnealingDevice(AnnealingDeviceProfile.advantage41())
        old = AnnealingDevice(AnnealingDeviceProfile.dwave2000q())
        emb_new = adv.embed(program, rng=rng)
        emb_old = old.embed(program, rng=rng)
        assert emb_old.num_physical_qubits >= emb_new.num_physical_qubits


class TestSpinReversalTransforms:
    def test_gauged_sampling_still_solves(self, small_device):
        device = AnnealingDevice(
            AnnealingDeviceProfile.small_test(m=4, noiseless=True),
            num_spin_reversal_transforms=4,
        )
        env = mvc_env()
        truth = ExactNckSolver().max_soft_satisfiable(env)
        ss = device.sample(env, num_reads=40, rng=np.random.default_rng(2))
        assert len(ss) == 40
        assert ss.best_quality(truth) is SolutionQuality.OPTIMAL

    def test_gauge_is_exact_transformation(self):
        """Un-gauged samples evaluate identically on the logical model."""
        from repro.annealing.device import _apply_gauge
        from repro.qubo import IsingModel

        model = IsingModel(h={"a": 1.0, "b": -0.5}, J={("a", "b"): 0.7}, offset=0.2)
        order = ("a", "b")
        gauge = np.array([-1.0, 1.0])
        gauged = _apply_gauge(model, order, gauge)
        for sa in (-1, 1):
            for sb in (-1, 1):
                original = model.energy({"a": sa, "b": sb})
                transformed = gauged.energy({"a": -sa, "b": sb})
                assert original == pytest.approx(transformed)

    def test_read_count_preserved_with_uneven_split(self):
        device = AnnealingDevice(
            AnnealingDeviceProfile.small_test(m=4, noiseless=True),
            num_spin_reversal_transforms=3,
        )
        ss = device.sample(mvc_env(), num_reads=50, rng=np.random.default_rng(3))
        assert len(ss) == 50
