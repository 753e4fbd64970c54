"""Micro-benchmarks of the numerical kernels (HPC-guide hygiene).

Not tied to a paper figure; these watch the hot paths the experiment
drivers lean on so performance regressions surface here first:

* vectorized simulated-annealing sweeps;
* statevector gate application;
* batch QUBO energy evaluation;
* per-constraint QUBO synthesis (LP and MILP paths);
* the sparse-vs-dense sweep kernel gate (``BENCH_sparse_kernels.json``):
  on a Table-1-scale sparse coupling graph the CSR kernel must be ≥ 10×
  faster than the dense BLAS kernel *and* produce bit-identical samples
  for identical seeds (the ``docs/numerics.md`` determinism contract).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.annealing import AnnealSchedule, SimulatedAnnealingSampler
from repro.annealing.sampler import _independent_classes
from repro.circuit import Circuit, StatevectorSimulator
from repro.compile import synthesize_constraint_qubo
from repro.core import nck
from repro.qubo import HAVE_SCIPY, QUBO, qubo_to_ising
from repro.qubo.ising import IsingModel

from conftest import banner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

SPARSE_OUTPUT = "BENCH_sparse_kernels.json"

#: The gate: the CSR kernel must beat dense BLAS by at least this factor
#: on the Table-1-scale sparse problem below.
SPARSE_SPEEDUP_FLOOR = 10.0


def random_qubo(rng, n, density=0.3) -> QUBO:
    q = QUBO()
    for i in range(n):
        q.add_linear(f"v{i:03d}", float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                q.add_quadratic(f"v{i:03d}", f"v{j:03d}", float(rng.normal()))
    return q


def test_sa_sweep_throughput(benchmark):
    rng = np.random.default_rng(0)
    model = qubo_to_ising(random_qubo(rng, 200))
    sampler = SimulatedAnnealingSampler(AnnealSchedule(num_sweeps=64))
    sample_rng = np.random.default_rng(1)
    benchmark(lambda: sampler.sample(model, num_reads=100, rng=sample_rng))


def test_statevector_throughput(benchmark):
    rng = np.random.default_rng(2)
    circ = Circuit(16)
    for q in range(16):
        circ.add("h", q)
    for _ in range(100):
        a, b = rng.choice(16, size=2, replace=False)
        circ.add("rzz", (int(a), int(b)), float(rng.normal()))
        circ.add("rx", int(rng.integers(16)), float(rng.normal()))
    sim = StatevectorSimulator()
    benchmark(lambda: sim.probabilities(circ))


def test_batch_energy_throughput(benchmark):
    rng = np.random.default_rng(3)
    q = random_qubo(rng, 100)
    X = rng.integers(0, 2, size=(2000, 100)).astype(float)
    variables = q.variables
    benchmark(lambda: q.energies(X, variables))


def test_synthesis_lp_path(benchmark):
    benchmark(lambda: synthesize_constraint_qubo(
        nck(["a", "b", "c", "d"], [1, 2]), allow_closed_form=False
    ))


def random_sparse_ising(rng, n, degree=6) -> IsingModel:
    """A bounded-degree Ising model with dyadic (exactly representable)
    coefficients, so dense and sparse field sums round identically and
    the equivalence assertion can demand bit-identical spins."""
    h = {f"s{i:05d}": float(rng.integers(-8, 9)) * 0.25 for i in range(n)}
    J = {}
    for i in range(n):
        for j in rng.integers(0, n, size=degree):
            j = int(j)
            if i != j:
                u, v = (i, j) if i < j else (j, i)
                J[(f"s{u:05d}", f"s{v:05d}")] = float(rng.integers(-8, 9)) * 0.25
    return IsingModel(h=h, J=J)


@pytest.mark.skipif(not HAVE_SCIPY, reason="sparse numeric core needs scipy")
def test_sparse_kernel_gate(benchmark, full_scale):
    """The tentpole gate: CSR sweeps ≥ 10× dense on sparse problems,
    with bit-identical samples for identical seeds."""
    n, degree, reads, sweeps = (8192, 6, 48, 12) if full_scale else (6144, 6, 32, 8)
    rng = np.random.default_rng(2022)
    model = random_sparse_ising(rng, n, degree)
    schedule = AnnealSchedule(num_sweeps=sweeps)
    sampler = SimulatedAnnealingSampler(schedule)
    seed = 7

    timings = {}
    results = {}
    for representation in ("dense", "sparse"):
        t0 = time.perf_counter()
        results[representation] = sampler.sample(
            model,
            num_reads=reads,
            rng=np.random.default_rng(seed),
            representation=representation,
        )
        timings[representation] = time.perf_counter() - t0

    identical = bool(
        np.array_equal(results["dense"].spins, results["sparse"].spins)
        and np.array_equal(results["dense"].energies, results["sparse"].energies)
    )
    speedup = timings["dense"] / timings["sparse"]

    banner(f"sparse kernel gate (n={n}, degree≈{degree}, reads={reads}, sweeps={sweeps})")
    print(f"dense sweep wall:  {timings['dense']:.3f}s")
    print(f"sparse sweep wall: {timings['sparse']:.3f}s")
    print(f"speedup: {speedup:.1f}× (floor {SPARSE_SPEEDUP_FLOOR:.0f}×)")
    print(f"identical samples: {identical}")

    with open(SPARSE_OUTPUT, "w") as fh:
        json.dump(
            {
                "bench": "sparse_kernels",
                "smoke": SMOKE,
                "n": n,
                "degree": degree,
                "num_reads": reads,
                "num_sweeps": sweeps,
                "dense_seconds": timings["dense"],
                "sparse_seconds": timings["sparse"],
                "speedup": speedup,
                "speedup_floor": SPARSE_SPEEDUP_FLOOR,
                "identical_samples": identical,
                "color_classes": len(
                    _independent_classes(model.to_arrays()[1] + model.to_arrays()[1].T)
                ),
            },
            fh,
            indent=2,
        )
    print(f"results written to {SPARSE_OUTPUT}")

    assert identical, "dense and sparse kernels diverged for identical seeds"
    assert speedup >= SPARSE_SPEEDUP_FLOOR, (
        f"sparse kernel speedup {speedup:.1f}× below the "
        f"{SPARSE_SPEEDUP_FLOOR:.0f}× gate"
    )

    benchmark(
        lambda: sampler.sample(
            model,
            num_reads=reads,
            rng=np.random.default_rng(seed),
            representation="sparse",
            schedule=AnnealSchedule(num_sweeps=2),
        )
    )


def test_synthesis_milp_path(benchmark):
    benchmark(lambda: synthesize_constraint_qubo(
        nck(["a", "b", "c"], [0, 2]), allow_closed_form=False
    ))
