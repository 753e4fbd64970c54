"""QAOA: the Quantum Approximate Optimization Algorithm (Farhi et al.).

NchooseK's circuit-model path expresses the compiled QUBO as an Ising
problem Hamiltonian and runs QAOA (Section V: "a software analogue of the
quantum-annealing process").  One layer alternates

.. math::

    U_C(\\gamma) = e^{-i \\gamma H_C}, \\qquad
    U_B(\\beta)  = e^{-i \\beta \\sum_i X_i},

after a uniform-superposition preparation; a classical optimizer tunes
``(γ, β)`` per layer against the measured cost expectation.  The phase
separator compiles to ``RZ`` (fields) and ``RZZ`` (couplers) rotations,
the mixer to ``RX`` — the circuits whose transpiled depths Figures 9 and
10 plot.

The expectation is evaluated exactly from the statevector (the classical
optimizer's inner loop), while final answers are drawn with shot sampling
through the device noise model, matching how Qiskit's QAOA drives real
hardware.  Both come from :func:`qaoa_probabilities`'s kernel, which
simulates the ansatz without building it: ``U_C`` is diagonal in the
computational basis, so it is one elementwise multiply by
``exp(-iγ·diag H_C)``, exponentiated once per distinct energy level, and
the mixer evolves the flat state itself.  :func:`qaoa_circuit` builds the
same ansatz gate by gate, for the transpiler and the reference simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .. import telemetry
from ..qubo.ising import IsingModel
from .circuit import Circuit
from .mixers import TransverseFieldMixer
from .statevector import draw_counts


@dataclass
class QAOAResult:
    """Outcome of one QAOA optimization run."""

    best_bits: np.ndarray  # 0/1 per variable, optimizer-order columns
    best_value: float  # Ising energy of best sampled bitstring
    expectation: float  # ⟨H_C⟩ at the optimal parameters
    parameters: np.ndarray  # optimal (γ..., β...)
    num_circuit_evaluations: int
    variables: tuple[str, ...]
    counts: dict[int, int] = field(default_factory=dict)
    #: ``cost_diagonal(model, variables)``, so callers need not recompute it.
    diagonal: np.ndarray | None = field(default=None, repr=False, compare=False)


def qaoa_circuit(
    model: IsingModel,
    gammas: np.ndarray,
    betas: np.ndarray,
    variables: tuple[str, ...] | None = None,
    mixer=None,
) -> Circuit:
    """Build the p-layer QAOA ansatz circuit for ``model``.

    Qubit ``i`` carries ``variables[i]``.  Terms with zero coefficient are
    skipped, so circuit size tracks the number of QUBO terms — the paper's
    link between constraint count and circuit depth (Figure 10).

    ``mixer`` selects the mixing Hamiltonian (default: the standard
    transverse field; see :mod:`repro.circuit.mixers` for the
    constraint-preserving alternatives of the paper's Section IX).
    """
    mixer = mixer or TransverseFieldMixer()
    order = tuple(variables) if variables is not None else model.variables
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    if n == 0:
        raise ValueError("cannot build a QAOA circuit over zero variables")
    if len(gammas) != len(betas):
        raise ValueError("gammas and betas must have equal length (layers)")

    circ = mixer.initial_state_circuit(n)
    for gamma, beta in zip(gammas, betas):
        for v, hv in model.h.items():
            if hv:
                circ.add("rz", index[v], 2.0 * gamma * hv)
        for (u, v), j in model.J.items():
            if j:
                circ.add("rzz", (index[u], index[v]), 2.0 * gamma * j)
        mixer.append_layer(circ, beta)
    return circ


def cost_diagonal(model: IsingModel, variables: tuple[str, ...]) -> np.ndarray:
    """The Ising Hamiltonian's diagonal over all computational basis states.

    Entry ``k`` is the energy of the spin configuration whose bits are the
    binary expansion of ``k`` (bit=1 ⇒ spin −1, the usual mapping).

    The coupler term is summed one nonzero coupler at a time, in
    row-major order, over contiguous spin columns: the products and the
    order in which ``np.einsum("si,ij,sj->s", spins, J, spins)`` adds
    them, so the diagonal keeps the einsum's bits while skipping its
    zero couplers.
    """
    n = len(variables)
    h, J = model.to_arrays(variables)
    from ..qubo.matrix import enumerate_assignments

    bits = enumerate_assignments(n).astype(float)
    spins = 1.0 - 2.0 * bits
    columns = np.ascontiguousarray(spins.T)
    quad = np.zeros(len(spins))
    for i, j in zip(*np.nonzero(J)):
        quad += columns[i] * J[i, j] * columns[j]
    return spins @ h + quad + model.offset


def qaoa_probabilities(
    diagonal: np.ndarray,
    gammas: np.ndarray,
    betas: np.ndarray,
    mixer=None,
) -> np.ndarray:
    """Measurement probabilities of the p-layer QAOA state.

    ``diagonal`` is :func:`cost_diagonal` of the model.  Each layer
    multiplies the state by ``exp(-iγ·diagonal)`` — the RZ/RZZ phase
    separator of :func:`qaoa_circuit` up to a global phase — and then
    calls ``mixer.evolve``.  The result equals
    ``StatevectorSimulator().probabilities(qaoa_circuit(...))`` to
    rounding, without building a circuit.
    """
    if len(gammas) != len(betas):
        raise ValueError("gammas and betas must have equal length (layers)")
    levels, index = np.unique(diagonal, return_inverse=True)
    return _level_probabilities(levels, index, gammas, betas, mixer)


def _level_probabilities(
    levels: np.ndarray,
    index: np.ndarray,
    gammas: np.ndarray,
    betas: np.ndarray,
    mixer=None,
) -> np.ndarray:
    """:func:`qaoa_probabilities` of the diagonal ``levels[index]``.

    The phase ``exp(-iγ·diagonal)`` is taken once per distinct energy
    level and gathered to the states: the same values, elementwise, as
    exponentiating the whole diagonal, for far fewer exponentials.
    """
    mixer = mixer or TransverseFieldMixer()
    psi = mixer.initial_state(index.size.bit_length() - 1)
    for gamma, beta in zip(gammas, betas):
        psi *= np.exp(-1j * gamma * levels)[index]
        psi = mixer.evolve(psi, beta)
    return psi.real**2 + psi.imag**2


class QAOA:
    """QAOA driver: ansatz + COBYLA parameter optimization.

    Parameters
    ----------
    layers:
        Ansatz depth ``p`` (the paper runs Qiskit's default shallow QAOA).
    maxiter:
        COBYLA iteration cap; the paper observes ≈25–35 circuit jobs per
        execution, which a ``maxiter`` of 30 reproduces.
    """

    def __init__(
        self,
        layers: int = 1,
        maxiter: int = 30,
        mixer=None,
        multistart: int = 1,
    ) -> None:
        if layers < 1:
            raise ValueError("QAOA needs at least one layer")
        if multistart < 1:
            raise ValueError("multistart needs at least one start")
        self.layers = layers
        self.maxiter = maxiter
        self.mixer = mixer  # None = transverse field (standard QAOA)
        # Restarts of the classical optimizer from fresh random (γ, β);
        # the start with the lowest optimized expectation wins.  COBYLA
        # on the QAOA landscape is local, so restarts matter at p ≥ 2.
        self.multistart = multistart

    # ------------------------------------------------------------------
    def optimize(
        self,
        model: IsingModel,
        rng: np.random.Generator | None = None,
        callback: Callable[[np.ndarray, float], None] | None = None,
    ) -> QAOAResult:
        """Optimize (γ, β) and sample the optimal state.

        Returns the lowest-energy bitstring among the final 4000-shot
        sample — the paper's "a single result is returned" semantics is
        applied by the caller, which takes :attr:`QAOAResult.best_bits`.
        """
        rng = rng or np.random.default_rng()
        variables = model.variables
        diagonal = cost_diagonal(model, variables)
        # The diagonal's distinct energies, taken once per job: each
        # evaluation exponentiates the levels, not every state.
        levels, index = np.unique(diagonal, return_inverse=True)
        evaluations = 0
        statevector_seconds = 0.0

        def probabilities(params: np.ndarray) -> np.ndarray:
            return _level_probabilities(
                levels, index, params[: self.layers], params[self.layers :], self.mixer
            )

        def objective(params: np.ndarray) -> float:
            nonlocal evaluations, statevector_seconds
            evaluations += 1
            t0 = time.perf_counter()
            value = float(probabilities(params) @ diagonal)
            statevector_seconds += time.perf_counter() - t0
            if callback is not None:
                callback(params, value)
            return value

        with telemetry.span(
            "circuit.qaoa",
            qubits=len(variables),
            layers=self.layers,
            multistart=self.multistart,
        ) as tspan:
            best_res = None
            for _start in range(self.multistart):
                x0 = np.concatenate(
                    [
                        rng.uniform(0.0, np.pi / 4, self.layers),  # gammas
                        rng.uniform(np.pi / 8, 3 * np.pi / 8, self.layers),  # betas
                    ]
                )
                res = minimize(
                    objective,
                    x0,
                    method="COBYLA",
                    options={"maxiter": self.maxiter, "rhobeg": 0.3},
                )
                if best_res is None or res.fun < best_res.fun:
                    best_res = res
            res = best_res

            best_params = res.x
            counts = draw_counts(probabilities(best_params), 4000, rng)
            telemetry.count("circuit.qaoa.iterations", evaluations)
            telemetry.observe("circuit.qaoa.statevector_seconds", statevector_seconds)
            tspan.set(iterations=evaluations, statevector_seconds=statevector_seconds)
        best_state = min(counts, key=lambda s: diagonal[s])
        n = len(variables)
        best_bits = np.array(
            [(best_state >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int8
        )
        return QAOAResult(
            best_bits=best_bits,
            best_value=float(diagonal[best_state]),
            expectation=float(res.fun),
            parameters=best_params,
            num_circuit_evaluations=evaluations,
            variables=variables,
            counts=counts,
            diagonal=diagonal,
        )
