"""Dense and sparse matrix views of QUBOs for vectorized evaluation.

The annealing sampler and the QAOA expectation evaluator both score many
candidate assignments per step; converting the dictionary form to a
matrix once and evaluating with BLAS-backed einsum (dense) or CSR
products (sparse) keeps those inner loops out of Python (per the
HPC-guide vectorization idiom).

Two layouts share one convention — linear coefficients on the diagonal
(valid because ``x*x == x`` for binaries), quadratic coefficients
strictly above it:

* :func:`to_dense` / :func:`from_dense` — an ``(n, n)`` ``numpy`` array;
  right for small or dense problems where BLAS wins.
* :func:`to_sparse` / :func:`from_sparse` — a ``scipy.sparse`` CSR
  matrix; right for Table-1-scale problems, whose coupling graphs are
  overwhelmingly sparse.  ``scipy`` is imported lazily and guarded:
  without it the sparse helpers raise and callers fall back to dense.

:func:`preferred_representation` is the density heuristic every caller
shares, and :data:`EXHAUSTIVE_SEARCH_LIMIT` is the single documented cap
on exhaustive enumeration.  The full numeric-core contract (layouts,
heuristic thresholds, determinism guarantees) lives in
``docs/numerics.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import QUBO

try:  # guarded: the dense path must work on a scipy-less install
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover - exercised on minimal installs
    _sp = None

#: Whether the sparse numeric core is available (``scipy`` importable).
HAVE_SCIPY = _sp is not None

#: The one exhaustive-enumeration cap (see ``docs/numerics.md``): no
#: code path in the repo materializes more than ``2**EXHAUSTIVE_SEARCH_LIMIT``
#: assignments.  ``2**22`` rows × 8 bytes × ~n columns is the largest
#: allocation that stays comfortably inside CI memory budgets; the exact
#: Ising solver, ``QUBO.ground_states``, and the classical exhaustive
#: dispatch all share this constant instead of drifting apart.
EXHAUSTIVE_SEARCH_LIMIT = 22

#: Density-heuristic thresholds (see :func:`preferred_representation`).
#: Below ``SPARSE_MIN_VARIABLES`` the dense kernels win outright (BLAS
#: overhead is negligible and CSR indexing is not); above it, CSR wins
#: once the fraction of realized couplers drops under the cutoff.
SPARSE_MIN_VARIABLES = 64
SPARSE_DENSITY_CUTOFF = 0.25


def require_scipy():
    """The ``scipy.sparse`` module, or a clear error when not installed."""
    if _sp is None:
        raise ImportError(
            "the sparse numeric core needs scipy (pip install 'repro[sparse]'); "
            "dense equivalents are available on every install"
        )
    return _sp


def coupling_density(num_variables: int, num_interactions: int) -> float:
    """Fraction of the ``n*(n-1)/2`` possible couplers that are realized."""
    if num_variables < 2:
        return 0.0
    return num_interactions / (num_variables * (num_variables - 1) / 2.0)


def preferred_representation(
    num_variables: int, num_interactions: int, representation: str | None = None
) -> str:
    """Pick ``"dense"`` or ``"sparse"`` for a coupling matrix.

    ``representation`` forces the choice (``"sparse"`` raises without
    scipy); ``None`` applies the shared density heuristic: sparse when
    scipy is available, the problem has at least
    :data:`SPARSE_MIN_VARIABLES` variables, and no more than
    :data:`SPARSE_DENSITY_CUTOFF` of the possible couplers are realized.
    """
    if representation is not None:
        if representation not in ("dense", "sparse"):
            raise ValueError(f"unknown representation {representation!r}")
        if representation == "sparse":
            require_scipy()
        return representation
    if (
        HAVE_SCIPY
        and num_variables >= SPARSE_MIN_VARIABLES
        and coupling_density(num_variables, num_interactions) <= SPARSE_DENSITY_CUTOFF
    ):
        return "sparse"
    return "dense"


def _index_order(qubo: "QUBO", order: Sequence[str] | None) -> tuple[tuple[str, ...], dict]:
    """Resolve ``order`` against the QUBO's variables (shared validation)."""
    variables = tuple(order) if order is not None else qubo.variables
    index = {v: i for i, v in enumerate(variables)}
    missing = set(qubo.variables) - set(index)
    if missing:
        raise ValueError(f"order is missing QUBO variables: {sorted(missing)}")
    return variables, index


def to_dense(qubo: "QUBO", order: Sequence[str] | None = None) -> tuple[np.ndarray, float]:
    """Upper-triangular coefficient matrix and constant offset.

    Linear coefficients sit on the diagonal (valid because ``x*x == x``
    for binaries), quadratic coefficients above it.  ``order`` fixes the
    row/column ↔ variable correspondence; it must cover every variable of
    the QUBO.
    """
    variables, index = _index_order(qubo, order)
    n = len(variables)
    Q = np.zeros((n, n))
    for v, a in qubo.linear.items():
        i = index[v]
        Q[i, i] += a
    for (u, v), b in qubo.quadratic.items():
        i, j = index[u], index[v]
        if i > j:
            i, j = j, i
        Q[i, j] += b
    return Q, qubo.offset


def to_sparse(qubo: "QUBO", order: Sequence[str] | None = None):
    """CSR coefficient matrix and constant offset (sparse :func:`to_dense`).

    Same layout contract as :func:`to_dense` — linear terms on the
    diagonal, quadratic terms strictly upper-triangular — as a
    ``scipy.sparse.csr_array`` with canonical (sorted, deduplicated)
    indices.  Requires scipy.
    """
    sp = require_scipy()
    variables, index = _index_order(qubo, order)
    n = len(variables)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for v, a in qubo.linear.items():
        i = index[v]
        rows.append(i)
        cols.append(i)
        vals.append(a)
    for (u, v), b in qubo.quadratic.items():
        i, j = index[u], index[v]
        if i > j:
            i, j = j, i
        rows.append(i)
        cols.append(j)
        vals.append(b)
    Q = sp.coo_array(
        (np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n)
    ).tocsr()
    Q.sum_duplicates()
    return Q, qubo.offset


def from_dense(Q: np.ndarray, variables: Sequence[str], offset: float = 0.0) -> "QUBO":
    """Rebuild a dictionary-form :class:`~repro.qubo.model.QUBO` from a matrix.

    Off-diagonal entries from both triangles accumulate into one term per
    pair, so symmetric and triangular inputs are both accepted.
    Vectorized: the nonzero scan runs over the symmetrized matrix with
    ``np.nonzero``, so cost scales with the number of terms, not ``n**2``.
    """
    from .model import QUBO

    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    if Q.shape[0] != len(variables):
        raise ValueError("variable list length does not match matrix size")
    out = QUBO(offset=offset)
    diag = np.diagonal(Q)
    for i in np.flatnonzero(diag):
        out.add_linear(variables[i], float(diag[i]))
    upper = np.triu(Q + Q.T, k=1)
    for i, j in zip(*np.nonzero(upper)):
        out.add_quadratic(variables[i], variables[j], float(upper[i, j]))
    return out


def from_sparse(Q, variables: Sequence[str], offset: float = 0.0) -> "QUBO":
    """Rebuild a :class:`~repro.qubo.model.QUBO` from any scipy sparse matrix.

    The sparse counterpart of :func:`from_dense`, with the same
    accumulation contract: diagonal entries become linear terms, both
    triangles of each off-diagonal pair accumulate into one quadratic
    term.
    """
    from .model import QUBO

    require_scipy()
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    if Q.shape[0] != len(variables):
        raise ValueError("variable list length does not match matrix size")
    coo = Q.tocoo()
    out = QUBO(offset=offset)
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if not v:
            continue
        if i == j:
            out.add_linear(variables[i], float(v))
        else:
            out.add_quadratic(variables[i], variables[j], float(v))
    return out


def sparse_energies(Q, offset: float, samples: np.ndarray) -> np.ndarray:
    """Vectorized energies off a CSR coefficient matrix.

    ``Q`` follows the :func:`to_sparse` layout (linear on the diagonal,
    quadratic strictly upper-triangular); ``samples`` is a
    ``(num_samples, n)`` 0/1 array.  One CSR × dense product replaces the
    dense ``n × n`` einsum, so cost scales with the number of nonzero
    terms.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    Xt = np.ascontiguousarray(X.T)
    return np.einsum("ns,ns->s", Q @ Xt, Xt) + offset


def enumerate_assignments(n: int) -> np.ndarray:
    """All ``2**n`` binary assignments as a ``(2**n, n)`` 0/1 array.

    Row ``r`` is the binary expansion of ``r`` with column 0 as the most
    significant bit, so rows are in lexicographic order.  Refuses above
    :data:`EXHAUSTIVE_SEARCH_LIMIT` bits — the repo-wide enumeration cap.
    """
    if n < 0:
        raise ValueError("negative variable count")
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    if n > EXHAUSTIVE_SEARCH_LIMIT:
        raise ValueError(
            f"refusing to enumerate 2**{n} assignments "
            f"(cap: EXHAUSTIVE_SEARCH_LIMIT = {EXHAUSTIVE_SEARCH_LIMIT})"
        )
    r = np.arange(2**n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    return ((r[:, None] >> shifts) & 1).astype(np.int8)
