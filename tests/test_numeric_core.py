"""The dense + sparse numeric-core contract (see docs/numerics.md).

Five groups:

* layout round-trips — ``to_sparse``/``from_sparse`` against the dense
  layout, for both QUBO and Ising forms;
* energy-kernel agreement — Hypothesis property tests that the dense
  einsum and the CSR kernel agree on random QUBOs;
* the equivalence matrix — dense and sparse annealing with identical
  seeds produce bit-identical ``SampleResult``s (dyadic coefficients, so
  field sums are exact);
* the sweep-kernel oracle — the blocked kernel against a verbatim copy
  of the per-class loop it replaced, on ICE-noised physical models and
  ``normal()`` models, bit for bit in samples, energies, generator
  state and per-class fields;
* the shared caps and heuristics — ``EXHAUSTIVE_SEARCH_LIMIT`` is the
  one enumeration cap, ``preferred_representation`` the one density
  heuristic, and the new telemetry families are canonical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.sampler import (
    AnnealSchedule,
    ExactIsingSolver,
    SimulatedAnnealingSampler,
    _blocked_order,
    _build_coupling,
    _class_fields,
    _class_uniforms,
    _independent_classes,
)
from repro.classical import EXHAUSTIVE_LIMIT
from repro.qubo import (
    EXHAUSTIVE_SEARCH_LIMIT,
    HAVE_SCIPY,
    QUBO,
    coupling_density,
    enumerate_assignments,
    from_dense,
    from_sparse,
    preferred_representation,
    sparse_energies,
    to_dense,
    to_sparse,
)
from repro.qubo.ising import IsingModel

needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="sparse core needs scipy")

ATOL = 1e-9


# ----------------------------------------------------------------------
# Random-model helpers
# ----------------------------------------------------------------------
def random_qubo(rng, n, density=0.3, dyadic=False) -> QUBO:
    coeff = (
        (lambda: float(rng.integers(-8, 9)) * 0.25)
        if dyadic
        else (lambda: float(rng.normal()))
    )
    q = QUBO(offset=coeff())
    for i in range(n):
        q.add_linear(f"v{i:03d}", coeff())
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                q.add_quadratic(f"v{i:03d}", f"v{j:03d}", coeff())
    return q


def random_ising(rng, n, density=0.1) -> IsingModel:
    """Dyadic coefficients: sums are exact, so kernels agree bitwise."""
    h = {f"s{i:03d}": float(rng.integers(-8, 9)) * 0.25 for i in range(n)}
    J = {
        (f"s{i:03d}", f"s{j:03d}"): float(rng.integers(-8, 9)) * 0.25
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return IsingModel(h=h, J=J)


# ----------------------------------------------------------------------
# Layout round-trips
# ----------------------------------------------------------------------
@needs_scipy
class TestSparseLayout:
    def test_to_sparse_matches_to_dense(self):
        q = random_qubo(np.random.default_rng(0), 12)
        Q_dense, off_d = to_dense(q)
        Q_csr, off_s = to_sparse(q)
        assert off_s == off_d
        assert np.allclose(Q_csr.toarray(), Q_dense)
        # Strictly upper-triangular + diagonal, canonical indices.
        assert np.allclose(Q_csr.toarray(), np.triu(Q_csr.toarray()))

    def test_from_sparse_roundtrip(self):
        q = random_qubo(np.random.default_rng(1), 10)
        Q, off = to_sparse(q)
        assert from_sparse(Q, q.variables, off) == q

    def test_from_sparse_accumulates_both_triangles(self):
        sp = pytest.importorskip("scipy.sparse")
        M = sp.coo_array(
            (np.array([2.0, 1.0, 0.5]), ([0, 1, 0], [1, 0, 0])), shape=(2, 2)
        )
        q = from_sparse(M, ("a", "b"))
        assert q.quadratic == {("a", "b"): 3.0}
        assert q.linear == {"a": 0.5}

    def test_from_sparse_validates_shape(self):
        sp = pytest.importorskip("scipy.sparse")
        with pytest.raises(ValueError):
            from_sparse(sp.csr_array(np.zeros((2, 3))), ("a", "b"))
        with pytest.raises(ValueError):
            from_sparse(sp.csr_array(np.zeros((2, 2))), ("a", "b", "c"))

    def test_ising_to_sparse_roundtrip(self):
        m = random_ising(np.random.default_rng(2), 10, density=0.3)
        h_d, J_d = m.to_arrays()
        h_s, J_s = m.to_sparse()
        assert np.allclose(h_s, h_d)
        assert np.allclose(J_s.toarray(), J_d)
        back = IsingModel.from_sparse(h_s, J_s, m.variables, m.offset)
        assert back.h == {v: hv for v, hv in m.h.items() if hv}
        assert back.J == {k: jv for k, jv in m.J.items() if jv}

    def test_from_dense_vectorized_matches_roundtrip(self):
        q = random_qubo(np.random.default_rng(3), 15)
        Q, off = to_dense(q)
        assert from_dense(Q, q.variables, off) == q
        # Symmetric input accumulates both triangles.
        sym = Q + Q.T - np.diag(np.diag(Q))
        doubled = from_dense(sym, q.variables, off)
        for k, b in q.quadratic.items():
            assert doubled.quadratic[k] == pytest.approx(2 * b)


# ----------------------------------------------------------------------
# Energy-kernel agreement (Hypothesis properties)
# ----------------------------------------------------------------------
@st.composite
def qubo_and_samples(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 24))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    q = random_qubo(rng, n, density)
    X = rng.integers(0, 2, size=(16, n)).astype(float)
    return q, X


@needs_scipy
@settings(max_examples=50, deadline=None)
@given(qubo_and_samples())
def test_sparse_and_dense_energies_agree(case):
    q, X = case
    order = q.variables
    dense = q.energies(X, order, representation="dense")
    sparse = q.energies(X, order, representation="sparse")
    assert np.allclose(dense, sparse, atol=ATOL)
    Q, off = to_sparse(q, order)
    assert np.allclose(sparse_energies(Q, off, X), dense, atol=ATOL)


@needs_scipy
@settings(max_examples=25, deadline=None)
@given(qubo_and_samples())
def test_ising_sparse_and_dense_energies_agree(case):
    from repro.qubo.ising import qubo_to_ising

    q, X = case
    m = qubo_to_ising(q)
    order = m.variables
    S = (1 - 2 * X[:, : len(order)]).astype(float)
    dense = m.energies(S, order, representation="dense")
    sparse = m.energies(S, order, representation="sparse")
    assert np.allclose(dense, sparse, atol=ATOL)


# ----------------------------------------------------------------------
# The equivalence matrix: dense / sparse, identical seeds
# ----------------------------------------------------------------------
@needs_scipy
class TestEquivalenceMatrix:
    SCHEDULE = AnnealSchedule(num_sweeps=32)

    def test_color_classes_identical_across_representations(self):
        m = random_ising(np.random.default_rng(5), 60, density=0.08)
        _, J_ut = m.to_arrays()
        _, J_csr = m.to_sparse()
        dense_classes = _independent_classes(J_ut + J_ut.T)
        sparse_classes = _independent_classes((J_csr + J_csr.T).tocsr())
        assert len(dense_classes) == len(sparse_classes)
        for a, b in zip(dense_classes, sparse_classes):
            assert np.array_equal(a, b)

    def test_dense_and_sparse_samples_bit_identical(self):
        m = random_ising(np.random.default_rng(6), 90, density=0.05)
        sampler = SimulatedAnnealingSampler(self.SCHEDULE)
        out = {
            rep: sampler.sample(
                m, num_reads=16, rng=np.random.default_rng(77), representation=rep
            )
            for rep in ("dense", "sparse")
        }
        assert np.array_equal(out["dense"].spins, out["sparse"].spins)
        assert np.array_equal(out["dense"].energies, out["sparse"].energies)
        assert out["dense"].variables == out["sparse"].variables

# ----------------------------------------------------------------------
# The blocked sweep kernel against the per-class loop it replaced
# ----------------------------------------------------------------------
def oracle_sweeps(S, h, coupling, classes, betas, draw) -> None:
    """The per-class Metropolis loop the blocked kernel replaced, verbatim.

    ``draw(k)`` returns class ``k``'s ``(num_reads, m_k)`` uniforms.
    """
    dense = isinstance(coupling, np.ndarray)
    if dense:
        # Pre-slice the per-class column blocks once; each sweep is then
        # one BLAS product per class against a contiguous block.
        operators = [np.ascontiguousarray(coupling[:, cls]) for cls in classes]
    else:
        # CSR row blocks: fields come from J_sym[cls] @ S.T, whose cost
        # scales with the couplers of the class, not n**2.
        operators = [coupling[cls] for cls in classes]
    for beta in betas:
        for k, cls in enumerate(classes):
            if dense:
                fields = S @ operators[k] + h[cls]
            else:
                fields = (operators[k] @ S.T).T + h[cls]
            delta = -2.0 * S[:, cls] * fields
            accept = (delta <= 0.0) | (
                draw(k) < np.exp(np.clip(-delta * beta, -700, 0))
            )
            S[:, cls] = np.where(accept, -S[:, cls], S[:, cls])


def oracle_sample(model, num_reads, rng, schedule, representation):
    """``SimulatedAnnealingSampler.sample``'s steps around the oracle loop."""
    order = model.variables
    chosen = preferred_representation(len(order), len(model.J), representation)
    h, J_sym = _build_coupling(model, order, chosen)
    classes = _independent_classes(J_sym)
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_reads, len(order)))
    S = spins.astype(np.float64)
    oracle_sweeps(
        S,
        h,
        J_sym,
        classes,
        schedule.betas(),
        lambda k: rng.random((num_reads, classes[k].size)),
    )
    return S.astype(np.int8), model.energies(S, order, representation=chosen)


def normal_ising(rng, n, density) -> IsingModel:
    """``normal()`` coefficients: field sums round, unlike the dyadic models."""
    h = {f"s{i:03d}": float(rng.normal()) for i in range(n)}
    J = {
        (f"s{i:03d}", f"s{j:03d}"): float(rng.normal())
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return IsingModel(h=h, J=J)


@pytest.fixture(scope="module")
def noisy_physical_models():
    """ICE-noised physical models of three programs on the Advantage profile.

    Sizes 37, 113 and 138 spins: one below and two above the 64-spin
    dense/sparse threshold.  Each comes with the device's adaptive
    schedule, shortened to 48 sweeps.
    """
    from repro.annealing import AnnealingDevice, AnnealingDeviceProfile
    from repro.experiments.scaling import cover_study, sat_study, vertex_study
    from repro.qubo.ising import qubo_to_ising

    device = AnnealingDevice(AnnealingDeviceProfile.advantage41())
    wanted = {"min-set-cover 8el/8s", "3-sat 5v/8c", "clique-cover 9v"}
    points = vertex_study(triangles=(3,)) + cover_study(sizes=((8, 8),)) + sat_study(
        sizes=((5, 8),)
    )
    out = {}
    for point in points:
        name = f"{point.problem} {point.label}"
        if name not in wanted:
            continue
        program = point.instance.build_env().to_qubo()
        rng = np.random.default_rng(3)
        embedding = device.embed(program, rng=rng)
        physical = device._embedded_model(qubo_to_ising(program.qubo), embedding)
        noisy = device.profile.noise.apply(physical, rng)
        scale = noisy.max_abs_coefficient()
        out[name] = (
            noisy,
            AnnealSchedule(beta_min=0.05 / scale, beta_max=10.0 / scale, num_sweeps=48),
        )
    assert set(out) == wanted
    return out


def kernel_models(noisy_physical_models):
    """The noisy physical models plus ``normal()`` models of 20–130 spins."""
    rng = np.random.default_rng(11)
    models = dict(noisy_physical_models)
    for n, density in ((20, 0.3), (50, 0.1), (90, 0.05), (130, 0.03)):
        models[f"normal {n}"] = (normal_ising(rng, n, density), AnnealSchedule(num_sweeps=48))
    return models


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@needs_scipy
class TestSweepKernelOracle:
    """Seeded samples equal the per-class loop's, bit for bit.

    The coefficients are not binary fractions, so field sums round: a
    kernel that summed in another order would move the fields by an ulp,
    which :meth:`test_class_fields_match_the_per_class_expressions`
    sees even where no sample moves.
    """

    @pytest.mark.parametrize("representation", ["dense", "sparse"])
    def test_sample_matches_oracle(self, noisy_physical_models, representation):
        for name, (model, schedule) in kernel_models(noisy_physical_models).items():
            sampler = SimulatedAnnealingSampler(schedule)
            rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(21)
            got = sampler.sample(model, num_reads=24, rng=rng, representation=representation)
            spins, energies = oracle_sample(model, 24, oracle_rng, schedule, representation)
            assert np.array_equal(got.spins, spins), name
            assert_same_bits(got.energies, energies)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, name

    @pytest.mark.parametrize("representation", ["dense", "sparse"])
    def test_class_fields_match_the_per_class_expressions(
        self, noisy_physical_models, representation
    ):
        rng = np.random.default_rng(5)
        for name, (model, _) in kernel_models(noisy_physical_models).items():
            h, J_sym = _build_coupling(model, model.variables, representation)
            classes = _independent_classes(J_sym)
            perm, bounds = _blocked_order(classes)
            assert sorted(perm.tolist()) == list(range(len(model.variables)))
            S = rng.choice(np.array([-1.0, 1.0]), size=(100, len(model.variables)))
            T = np.ascontiguousarray(S.T[perm])
            fields = _class_fields(J_sym, h, classes)
            for k, cls in enumerate(classes):
                assert np.array_equal(T[bounds[k][0] : bounds[k][1]], S[:, cls].T)
                if representation == "dense":
                    # The contiguous column block, as the per-class loop
                    # sliced it: J_sym[:, cls] alone is column-major, and
                    # BLAS rounds that product differently.
                    expected = S @ np.ascontiguousarray(J_sym[:, cls]) + h[cls]
                else:
                    expected = (J_sym[cls] @ S.T).T + h[cls]
                assert_same_bits(fields(k, T).T, expected)

    def test_one_sweep_draws_what_the_per_class_calls_drew(self):
        classes = [np.array([0, 3, 5]), np.array([1, 4]), np.array([2])]
        _, bounds = _blocked_order(classes)
        flat = np.random.default_rng(8).random(7 * 6)
        per_class = np.random.default_rng(8)
        for k, u in enumerate(_class_uniforms(flat, 7, bounds)):
            assert_same_bits(u, per_class.random((7, classes[k].size)))


# ----------------------------------------------------------------------
# Density heuristic
# ----------------------------------------------------------------------
class TestDensityHeuristic:
    def test_forced_representation_validated(self):
        with pytest.raises(ValueError, match="unknown representation"):
            preferred_representation(10, 5, "csr")
        assert preferred_representation(10, 5, "dense") == "dense"

    def test_small_or_dense_problems_stay_dense(self):
        assert preferred_representation(16, 10) == "dense"
        n = 1000
        assert preferred_representation(n, n * (n - 1) // 2) == "dense"

    @needs_scipy
    def test_large_sparse_problems_go_sparse(self):
        assert preferred_representation(1000, 3000) == "sparse"
        assert preferred_representation(64, 0) == "sparse"

    def test_coupling_density(self):
        assert coupling_density(1, 0) == 0.0
        assert coupling_density(4, 6) == 1.0
        assert coupling_density(1000, 499500) == 1.0


# ----------------------------------------------------------------------
# The one enumeration cap
# ----------------------------------------------------------------------
class TestExhaustiveCap:
    def test_classical_alias_is_the_shared_constant(self):
        assert EXHAUSTIVE_LIMIT is EXHAUSTIVE_SEARCH_LIMIT

    def test_enumerate_assignments_refuses_above_cap(self):
        with pytest.raises(ValueError, match="EXHAUSTIVE_SEARCH_LIMIT"):
            enumerate_assignments(EXHAUSTIVE_SEARCH_LIMIT + 1)

    def test_ground_states_refuses_above_cap(self):
        q = QUBO({f"x{i:02d}": 1.0 for i in range(EXHAUSTIVE_SEARCH_LIMIT + 1)})
        with pytest.raises(ValueError, match="infeasible"):
            q.ground_states()

    def test_exact_ising_solver_refuses_above_cap(self):
        m = IsingModel(h={f"s{i:02d}": 1.0 for i in range(EXHAUSTIVE_SEARCH_LIMIT + 1)})
        with pytest.raises(ValueError, match="infeasible"):
            ExactIsingSolver().solve(m)


# ----------------------------------------------------------------------
# Telemetry naming
# ----------------------------------------------------------------------
def test_new_telemetry_families_are_canonical():
    from repro.telemetry import KNOWN_NAME_FAMILIES, is_canonical_name

    assert "anneal.sparse" in KNOWN_NAME_FAMILIES
    for family in KNOWN_NAME_FAMILIES:
        assert is_canonical_name(f"{family}.reads")
