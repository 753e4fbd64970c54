"""Sampling-level noise model for the circuit device.

Full density-matrix noise simulation is exponentially expensive, so the
device applies noise where it matters for the paper's metrics: the
measured bitstring distribution.  The model composes

* **depolarizing error per gate**: each 1-qubit gate depolarizes its
  qubit with probability ``p1``, each 2-qubit gate both qubits with
  probability ``p2`` (the dominant term on real hardware, ~10× ``p1``);
* **readout error**: each measured bit flips with probability ``p_ro``.

Applied at sampling time: with probability ``1 - fidelity(circuit)`` a
shot is replaced by a uniformly random bitstring (the fully-depolarized
limit), and every surviving shot's bits flip independently with
``p_ro``.  This coarse "global depolarizing + readout" channel is the
standard analytic approximation for QAOA fidelity scaling and produces
the paper's qualitative behaviour: success degrades smoothly with gate
count and depth until only incorrect answers remain.

Per-qubit error-rate heterogeneity (Section VIII-B: "some qubits and some
connections are worse than others") enters through a per-qubit multiplier
drawn once per device instance; large problems are forced onto worse
qubits, as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit


@dataclass
class CircuitNoiseModel:
    """Depolarizing + readout noise with per-qubit heterogeneity.

    Default rates follow published ibmq_brooklyn medians (CX error ≈ 1.5%,
    single-qubit error ≈ 0.03%, readout ≈ 2.5%).
    """

    p1: float = 3e-4
    p2: float = 1.5e-2
    p_readout: float = 2.5e-2
    #: Log-normal sigma of per-qubit quality multipliers.
    heterogeneity: float = 0.5
    num_qubits: int = 65
    seed: int = 20220527

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        # Qubit quality multipliers, sorted so low physical indices are
        # the "good" qubits (layout places small problems there first).
        mult = np.exp(rng.normal(0.0, self.heterogeneity, self.num_qubits))
        self.qubit_quality = np.sort(mult)

    # ------------------------------------------------------------------
    def fidelity(self, gate_ends) -> float:
        """Probability a shot survives un-depolarized.

        ``gate_ends`` holds one ``(first, last)`` qubit pair per basis
        gate, in circuit order (a one-qubit gate's pair is ``(q, q)``);
        :attr:`repro.circuit.transpiler.TranspileResult.gate_ends` is
        such an array.  The result is the product of per-gate success
        probabilities, with each gate's error scaled by the mean quality
        multiplier of its qubits.  The logs are summed left to right
        (``cumsum``, not pairwise ``sum``), so the result is the same
        float a per-gate loop accumulates.
        """
        ends = np.asarray(gate_ends)
        if not len(ends):
            return 1.0
        two_qubit = ends[:, 0] != ends[:, 1]  # a gate's qubits are distinct
        quality = self.qubit_quality[ends % self.num_qubits]
        # The mean of a one-qubit gate's (q, q) is q exactly.
        mult = (quality[:, 0] + quality[:, 1]) / 2.0
        p_err = np.minimum(np.where(two_qubit, self.p2, self.p1) * mult, 0.999)
        return float(np.exp(np.cumsum(np.log1p(-p_err))[-1]))

    def circuit_fidelity(self, circuit: Circuit) -> float:
        """:meth:`fidelity` of ``circuit``'s gates."""
        return self.fidelity([(g.qubits[0], g.qubits[-1]) for g in circuit.gates])

    def apply_to_counts(
        self,
        counts: dict[int, int],
        num_qubits: int,
        fidelity: float,
        rng: np.random.Generator,
    ) -> dict[int, int]:
        """Noise-corrupt a noiseless shot histogram.

        Each shot depolarizes (uniform random bitstring) with probability
        ``1 - fidelity`` (:meth:`fidelity` of the transpiled circuit);
        surviving shots suffer independent readout bit flips.  Each
        distinct state makes its ``binomial``, ``integers`` and (if any
        shot survived) ``random`` draws in turn, and the returned
        histogram is keyed in order of first occurrence over those draws.
        """
        size = 1 << num_qubits
        weights = 1 << np.arange(num_qubits - 1, -1, -1)
        shots = []
        for state, c in counts.items():
            survived = rng.binomial(c, fidelity)
            # Depolarized shots: uniform over the computational basis.
            shots.append(rng.integers(0, size, size=c - survived))
            # Readout flips on surviving shots: each shot's flipped bits
            # as one mask, XORed into the state.
            if survived:
                flips = rng.random((survived, num_qubits)) < self.p_readout
                shots.append(state ^ (flips @ weights))
        if not shots:
            return {}
        # One tally over every shot, keyed in order of first occurrence.
        states, first, tally = np.unique(
            np.concatenate(shots), return_index=True, return_counts=True
        )
        order = np.argsort(first)
        return dict(zip(states[order].tolist(), tally[order].tolist()))


@dataclass
class NoiselessCircuitModel:
    """Identity noise (ablation baseline)."""

    def fidelity(self, gate_ends) -> float:
        return 1.0

    def circuit_fidelity(self, circuit: Circuit) -> float:
        return 1.0

    def apply_to_counts(self, counts, num_qubits, fidelity, rng):
        return dict(counts)
