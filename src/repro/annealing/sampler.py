"""Vectorized simulated-annealing sampler over Ising models.

The physical quantum anneal interpolates a transverse-field Hamiltonian
into the problem Hamiltonian and reads out a classical spin state; its
observable behaviour on the paper's workloads — low-energy but not always
ground-state samples, degrading with problem size and shrinking energy
gaps — is shared by classical simulated annealing over the same Ising
model, which is the standard software surrogate (D-Wave ships one as
``neal``).  This sampler is the core of our Advantage-device substitute.

Implementation notes (HPC-guide idioms; full contract in
``docs/numerics.md``):

* all ``num_reads`` replicas anneal simultaneously as columns of one
  transposed spin array whose rows are grouped class by class, so a
  class update is a handful of in-place numpy ops on one contiguous
  block, and each sweep makes one uniform draw;
* spins are partitioned into coupling-graph independent sets (greedy
  coloring) and each color class updates simultaneously with exact
  Metropolis dynamics — no co-flip artifacts, every update batched;
* the per-class local fields come from either a dense BLAS product or a
  sparse CSR product, chosen by the shared density heuristic
  (:func:`repro.qubo.matrix.preferred_representation`) — Table-1-scale
  coupling graphs are overwhelmingly sparse, and the CSR kernel's cost
  scales with couplers instead of ``n**2``.

One call anneals one model; the device runs one call per job (per
gauge), as the paper's Ocean path submits one program per job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..qubo.ising import IsingModel
from ..qubo.matrix import EXHAUSTIVE_SEARCH_LIMIT, preferred_representation, require_scipy


@dataclass
class AnnealSchedule:
    """Inverse-temperature (beta) schedule for simulated annealing."""

    beta_min: float = 0.1
    beta_max: float = 10.0
    num_sweeps: int = 256

    def betas(self) -> np.ndarray:
        """Geometric ramp from ``beta_min`` to ``beta_max``."""
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if not 0 < self.beta_min <= self.beta_max:
            raise ValueError("need 0 < beta_min <= beta_max")
        return np.geomspace(self.beta_min, self.beta_max, self.num_sweeps)


@dataclass
class SampleResult:
    """Raw sampler output: spin rows (±1), energies, column order."""

    spins: np.ndarray
    energies: np.ndarray
    variables: tuple[str, ...]

    def __len__(self) -> int:
        return self.spins.shape[0]


def _build_coupling(
    model: IsingModel, order: tuple[str, ...], representation: str
) -> tuple[np.ndarray, object]:
    """The ``(h, J_sym)`` pair in the requested representation.

    ``J_sym`` is the symmetrized coupling matrix — dense ``ndarray`` or
    CSR with canonical indices — whose row ``i`` holds every coupler of
    spin ``i`` (the local-field operator of the sweep kernel).
    """
    if representation == "sparse":
        h, J_ut = model.to_sparse(order)
        J_sym = (J_ut + J_ut.T).tocsr()
        J_sym.sort_indices()
        return h, J_sym
    h, J_ut = model.to_arrays(order)
    return h, J_ut + J_ut.T


def _blocked_order(classes: list[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The kernel's spin layout: ``(perm, bounds)``.

    Row ``r`` of the blocked ``(n, num_reads)`` spin array holds spin
    ``perm[r]``, and class ``k`` owns the contiguous rows
    ``bounds[k] = (a_k, b_k)``.
    """
    perm = np.concatenate(classes)
    ends = np.cumsum([cls.size for cls in classes]).tolist()
    return perm, list(zip([0] + ends[:-1], ends))


def _class_uniforms(
    U: np.ndarray, num_reads: int, bounds: list[tuple[int, int]]
) -> list[np.ndarray]:
    """Split one sweep's flat draws ``U`` into per-class ``(num_reads, m_k)`` views.

    The generator fills ``U`` one value after another, so class ``k``'s
    slice holds exactly what a ``random((num_reads, m_k))`` call per
    class, in class order, would return.
    """
    return [U[num_reads * a : num_reads * b].reshape(num_reads, b - a) for a, b in bounds]


def _class_fields(
    coupling, h: np.ndarray, classes: list[np.ndarray]
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The field step of the sweep kernel: ``fields(k, T)``.

    ``T`` is the blocked ``(n, num_reads)`` spin array of
    :func:`_blocked_order`; ``fields(k, T)`` returns class ``k``'s local
    fields ``h_i + sum_j J_sym[i, j] s_j`` as a fresh ``(m_k, num_reads)``
    array the caller may overwrite.  With ``S`` the row-major
    ``(num_reads, n)`` spin matrix that ``T`` blocks, they equal
    ``S @ np.ascontiguousarray(J_sym[:, cls]) + h[cls]`` (dense) or
    ``(J_sym[cls] @ S.T).T + h[cls]`` (sparse) bit for bit.
    """
    perm, _ = _blocked_order(classes)
    pos = np.argsort(perm)
    if isinstance(coupling, np.ndarray):
        # BLAS rounds by operand layout, so the product keeps the
        # row-major, original-order S against the contiguous column
        # block: rebuilding S costs O(n·reads), the product O(n·m·reads).
        # The result is copied to the block's layout, which keeps the
        # update's small elementwise passes contiguous.
        operators = [np.ascontiguousarray(coupling[:, cls]) for cls in classes]
        h_rows = [h[cls] for cls in classes]

        def fields(k: int, T: np.ndarray) -> np.ndarray:
            out = T[pos].T.copy() @ operators[k]
            out += h_rows[k]
            return np.ascontiguousarray(out.T)

        return fields
    # CSR row blocks whose column indices point at blocked rows, each
    # row's stored entry order kept: csr_matvecs sums in stored order,
    # so the fields are the original ones, and the C-ordered T is its
    # operand as it stands (S.T would be copied on every call).
    sp = require_scipy()
    operators = []
    for cls in classes:
        block = coupling[cls]
        operators.append(
            sp.csr_matrix((block.data, pos[block.indices], block.indptr), shape=block.shape)
        )
    h_cols = [h[cls][:, None] for cls in classes]

    def fields(k: int, T: np.ndarray) -> np.ndarray:
        out = operators[k] @ T
        out += h_cols[k]
        return out

    return fields


def _metropolis_sweeps(
    S: np.ndarray,
    h: np.ndarray,
    coupling,
    classes: list[np.ndarray],
    betas: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Run the color-class Metropolis sweep loop in place on ``S``.

    ``S`` is the ``(num_reads, n)`` float ±1 spin matrix and ``coupling``
    the symmetrized matrix (dense ``ndarray`` or CSR).  Each sweep makes
    one ``rng.random(num_reads * n)`` draw, cut into class ``k``'s
    ``(num_reads, m_k)`` acceptance uniforms by :func:`_class_uniforms`,
    so dense and sparse kernels consume identical streams.  The sweeps
    run on the blocked transpose of ``S`` (:func:`_blocked_order`), where
    each class is a contiguous row block updated in place.  Per class,
    the single-flip energy delta is ``dE(flip i) = -2 s_i f_i``, with
    ``f`` from :func:`_class_fields`; a flip is taken when its uniform is
    below ``exp(clip(-beta dE, -700, 0))``, which always holds for
    ``dE <= 0`` (``exp(0) = 1``).
    """
    perm, bounds = _blocked_order(classes)
    fields = _class_fields(coupling, h, classes)
    T = np.ascontiguousarray(S.T[perm])
    num_reads = S.shape[0]
    for beta in betas:
        uniforms = _class_uniforms(rng.random(S.size), num_reads, bounds)
        # -beta·dE = (s·f)·(2·beta): the factor 2 and the sign are exact,
        # so this rounds once, to the same value as (-dE)·beta.
        two_beta = 2.0 * beta
        for k, (a, b) in enumerate(bounds):
            s = T[a:b]
            x = fields(k, T)
            x *= s
            x *= two_beta
            np.maximum(x, -700.0, out=x)
            np.minimum(x, 0.0, out=x)
            np.exp(x, out=x)
            # Flip where u < x.  Two distinct doubles never differ by
            # zero, so u - x < 0 exactly there, and s·(u - x) carries
            # the new spin's sign (s itself on a tie's +0.0): one pass
            # each, where a masked negative is slow on a random mask.
            np.subtract(uniforms[k].T, x, out=x)
            x *= s
            np.copysign(1.0, x, out=s)
    S[...] = T[np.argsort(perm)].T


class SimulatedAnnealingSampler:
    """Batch simulated annealing over an :class:`IsingModel`."""

    name = "simulated-annealing"

    def __init__(self, schedule: AnnealSchedule | None = None) -> None:
        self.schedule = schedule or AnnealSchedule()

    def sample(
        self,
        model: IsingModel,
        num_reads: int = 100,
        rng: np.random.Generator | None = None,
        variables: Sequence[str] | None = None,
        schedule: AnnealSchedule | None = None,
        representation: str | None = None,
    ) -> SampleResult:
        """Draw ``num_reads`` annealed samples of ``model``.

        ``rng`` supplies every random draw, making runs reproducible
        (default: fresh OS entropy); ``variables`` fixes the spin-column
        order (default: the model's sorted variables); ``schedule``
        overrides the sampler default for this call; ``representation``
        forces the ``"dense"`` or ``"sparse"`` field kernel (default:
        the shared density heuristic).  Both kernels consume the RNG
        identically, so the choice affects floating-point rounding only —
        see ``docs/numerics.md`` for the exact determinism contract.
        """
        rng = rng or np.random.default_rng()  # nck: noqa[REP201]
        order = tuple(variables) if variables is not None else model.variables
        n = len(order)
        if n == 0:
            return SampleResult(
                spins=np.zeros((num_reads, 0), dtype=np.int8),
                energies=np.full(num_reads, model.offset),
                variables=order,
            )
        chosen = preferred_representation(n, len(model.J), representation)
        h, J_sym = _build_coupling(model, order, chosen)

        # Partition spins into independent sets (greedy coloring of the
        # coupling graph): spins within a class share no coupler, so a
        # whole class updates simultaneously with *exact* Metropolis
        # dynamics — no co-flip artifacts from parallel updates of
        # coupled pairs, while every update stays a batched numpy op.
        color_classes = _independent_classes(J_sym)

        spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_reads, n))
        S = spins.astype(np.float64)

        betas = (schedule or self.schedule).betas()
        t0 = time.perf_counter()
        _metropolis_sweeps(S, h, J_sym, color_classes, betas, rng)
        if telemetry.enabled():
            elapsed = time.perf_counter() - t0
            telemetry.count("anneal.sweeps", betas.size)
            telemetry.count("anneal.reads", num_reads)
            telemetry.observe("anneal.sweep_seconds", elapsed)
            if elapsed > 0.0:
                telemetry.observe("anneal.sweeps_per_second", betas.size / elapsed)
            if chosen == "sparse":
                telemetry.count("anneal.sparse.sweeps", betas.size)
                telemetry.count("anneal.sparse.reads", num_reads)

        energies = model.energies(S, order, representation=chosen)
        return SampleResult(spins=S.astype(np.int8), energies=energies, variables=order)


class ExactIsingSolver:
    """Exhaustive ground-state search for small Ising models (tests)."""

    name = "exact-ising"

    def solve(self, model: IsingModel) -> tuple[float, dict[str, int]]:
        from ..qubo.matrix import enumerate_assignments

        order = model.variables
        n = len(order)
        if n == 0:
            return model.offset, {}
        if n > EXHAUSTIVE_SEARCH_LIMIT:
            raise ValueError(f"exhaustive Ising search infeasible for {n} spins")
        bits = enumerate_assignments(n)
        spins = (1 - 2 * bits).astype(np.float64)
        e = model.energies(spins, order)
        i = int(e.argmin())
        return float(e[i]), dict(zip(order, map(int, spins[i])))


def _independent_classes(J_sym) -> list[np.ndarray]:
    """Greedy coloring of the coupling graph into independent index sets.

    Spins in one class have no coupler between them, so simultaneous
    Metropolis updates within a class are exact.  Greedy over descending
    degree keeps the class count near the coupling graph's chromatic
    number (≤ max degree + 1).

    ``J_sym`` may be a dense symmetric matrix or a CSR one; couplers
    with magnitude ≤ 1e-15 are ignored either way, so both
    representations produce *identical* classes (the RNG-consumption
    guarantee of the equivalence matrix rests on this).
    """
    if isinstance(J_sym, np.ndarray):
        n = J_sym.shape[0]
        adj = np.abs(J_sym) > 1e-15
        degrees = adj.sum(axis=1)
        neighbors = lambda i: np.flatnonzero(adj[i])  # noqa: E731
    else:
        # CSR: drop sub-threshold entries, then read adjacency straight
        # off the index structure — no dense n×n materialization.
        Jf = J_sym.copy()
        Jf.data = np.where(np.abs(Jf.data) > 1e-15, Jf.data, 0.0)
        Jf.eliminate_zeros()
        n = Jf.shape[0]
        indptr, indices = Jf.indptr, Jf.indices
        degrees = np.diff(indptr)
        neighbors = lambda i: indices[indptr[i] : indptr[i + 1]]  # noqa: E731
    order = np.argsort(-degrees)
    color = np.full(n, -1, dtype=np.int64)
    for i in order:
        used = set(color[neighbors(i)]) - {-1}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    return [np.flatnonzero(color == c) for c in range(int(color.max()) + 1)]
