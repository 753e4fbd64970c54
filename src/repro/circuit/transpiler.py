"""Transpilation: layout and SWAP routing onto a coupling map.

Circuit-model hardware executes two-qubit gates only between physically
coupled qubits, so logical circuits are (1) *laid out* — logical qubits
assigned to physical ones — and (2) *routed* — SWAP gates inserted to
ferry interacting pairs together.  The paper (Section VIII-B) attributes
much of the depth growth, and hence fidelity loss, to this routing.

The passes here mirror Qiskit's defaults in spirit:

* **layout**: a greedy subgraph-isomorphism-flavoured placement that maps
  the most-connected logical qubits to the best-connected region of the
  device (like VF2/`TrivialLayout`+`SabreLayout` hybrids, minus the
  exhaustive search);
* **routing**: a SABRE-style lookahead — at each blocked two-qubit gate,
  pick the SWAP that most reduces the summed distance of the gates in the
  near-term front.

Both passes run on plain lists and arrays: a gate is a ``(name, qubits,
params)`` op, and the routed ops are counted into the physical basis,
not built.  Every gate name has a fixed basis decomposition
(:func:`~repro.circuit.gates.decompose_to_basis`), so one walk over the
routed ops gives the ASAP depth — the Figure 9/10 metric — the two-qubit
gate count, the physical qubits used and each basis gate's (first, last)
qubit pair, which :meth:`~repro.circuit.noise.CircuitNoiseModel.fidelity`
reads.  The basis-gate :class:`~repro.circuit.circuit.Circuit` is built
only when a caller reads :attr:`TranspileResult.circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx
import numpy as np

from .. import telemetry
from .circuit import Circuit
from .gates import GATE_ARITY, GATE_PARAMS, Gate, decompose_to_basis

#: A gate as the transpiler carries it: name, qubits, parameters.
Op = tuple[str, tuple[int, ...], tuple[float, ...]]

#: Upcoming two-qubit gates scored when choosing a swap.
LOOKAHEAD = 8


def _basis_shape(name: str) -> tuple[tuple[int, int], ...]:
    """Each basis gate of ``name``'s decomposition, as (first, last)
    positions in the decomposed gate's qubit tuple."""
    probe = Gate(name, tuple(range(GATE_ARITY[name])), (0.0,) * GATE_PARAMS[name])
    return tuple((g.qubits[0], g.qubits[-1]) for g in decompose_to_basis(probe))


_BASIS_SHAPES = {name: _basis_shape(name) for name in GATE_ARITY}


@dataclass(eq=False)
class TranspileResult:
    """Routed ops plus layout bookkeeping and the numbers counted from them."""

    routed: list[Op] = field(repr=False)  # over physical qubits, swaps included
    num_qubits: int  # physical qubits of the device
    initial_layout: dict[int, int]  # logical → physical
    final_layout: dict[int, int]  # logical → physical after routing swaps
    num_swaps: int
    depth: int  # ASAP depth of the basis-gate circuit
    num_two_qubit_gates: int  # CX gates of the basis-gate circuit
    physical_qubits_used: int
    #: One row per basis gate, in order: its first and last qubit.
    gate_ends: np.ndarray = field(repr=False)

    @cached_property
    def circuit(self) -> Circuit:
        """The routed circuit in basis gates, built on first access."""
        return Circuit(self.num_qubits, (Gate(*op) for op in self.routed)).decomposed()


class Transpiler:
    """Layout + routing + basis decomposition for one coupling map."""

    def __init__(self, coupling: nx.Graph) -> None:
        if coupling.number_of_nodes() == 0:
            raise ValueError("empty coupling map")
        self.coupling = coupling
        self.physical = sorted(coupling.nodes)
        size = len(self.physical)
        if self.physical != list(range(size)):
            raise ValueError("coupling map qubits must be numbered 0..P-1")
        # Shortest-path lengths, infinite between components.  The array
        # feeds the layout's weighted products, its rows as lists the
        # routing's scalar reads.
        dist = np.full((size, size), np.inf)
        for p, lengths in nx.all_pairs_shortest_path_length(coupling):
            dist[p, list(lengths)] = list(lengths.values())
        self._dist = dist
        self._dist_rows = dist.tolist()
        # Device center: the qubit minimizing total distance to all others.
        self._center = int(np.argmin(np.where(np.isinf(dist), 0.0, dist).sum(axis=1)))
        # Each qubit's couplers as (low, high) pairs, in adjacency order.
        self._couplers = [
            [(p, q) if p < q else (q, p) for q in coupling.neighbors(p)]
            for p in self.physical
        ]

    @property
    def num_physical_qubits(self) -> int:
        return len(self.physical)

    # ------------------------------------------------------------------
    def transpile(self, circuit: Circuit) -> TranspileResult:
        """Map ``circuit`` onto the device and decompose to basis gates."""
        if circuit.num_qubits > self.num_physical_qubits:
            raise ValueError(
                f"{circuit.num_qubits} logical qubits exceed "
                f"{self.num_physical_qubits} physical qubits"
            )
        with telemetry.span(
            "circuit.transpile", logical_qubits=circuit.num_qubits
        ) as sp:
            ops = [(g.name, g.qubits, g.params) for g in circuit.gates]
            layout = self._initial_layout(circuit.num_qubits, ops)
            routed, final_layout, num_swaps = self._route(ops, layout)
            result = self._finish(routed, layout, final_layout, num_swaps)
            telemetry.count("circuit.transpiles")
            telemetry.count("circuit.swaps", num_swaps)
            telemetry.observe("circuit.depth", result.depth)
            telemetry.observe("circuit.two_qubit_gates", result.num_two_qubit_gates)
            sp.set(depth=result.depth, num_swaps=num_swaps)
            return result

    def _finish(
        self,
        routed: list[Op],
        layout: dict[int, int],
        final_layout: dict[int, int],
        num_swaps: int,
    ) -> TranspileResult:
        """Count the routed ops' basis gates and package the result.

        ``finish[q]`` is the layer after qubit ``q``'s last basis gate,
        as :meth:`Circuit.depth` schedules them; a qubit no op touches
        keeps 0.
        """
        finish = [0] * self.num_physical_qubits
        ends: list[int] = []
        two_qubit = 0
        for name, qubits, _params in routed:
            for i, j in _BASIS_SHAPES[name]:
                a, b = qubits[i], qubits[j]
                if a == b:
                    finish[a] += 1
                else:
                    finish[a] = finish[b] = max(finish[a], finish[b]) + 1
                    two_qubit += 1
                ends += (a, b)
        return TranspileResult(
            routed=routed,
            num_qubits=self.num_physical_qubits,
            initial_layout=layout,
            final_layout=final_layout,
            num_swaps=num_swaps,
            depth=max(finish),
            num_two_qubit_gates=two_qubit,
            physical_qubits_used=len(finish) - finish.count(0),
            gate_ends=np.array(ends, dtype=np.intp).reshape(-1, 2),
        )

    # ------------------------------------------------------------------
    def _initial_layout(self, num_qubits: int, ops: list[Op]) -> dict[int, int]:
        """Greedy interaction-aware placement.

        Logical qubits are placed in descending weighted-degree order;
        each goes to the free physical qubit minimizing the (weighted)
        distance to its already-placed interaction partners.  A qubit
        with no placed partner, the first one included, lands on the
        free qubit nearest the device "center" (the qubit with the least
        total distance to all others), mirroring how small problems get
        the best-connected region — the paper notes small problems can
        pick the best qubits while large ones spill into worse ones.

        A qubit's cost over every physical qubit is one product of its
        placed partners' weights with their distance rows; the values
        are whole numbers, so no summation order changes them.  Ties go
        to the first qubit of the ``free`` set's iteration order.
        """
        weights = np.zeros((num_qubits, num_qubits), dtype=np.int64)
        pairs = np.array([q for _, q, _ in ops if len(q) == 2], dtype=np.intp)
        if pairs.size:
            np.add.at(weights, (pairs[:, 0], pairs[:, 1]), 1)
            np.add.at(weights, (pairs[:, 1], pairs[:, 0]), 1)
        order = np.argsort(-weights.sum(axis=1), kind="stable").tolist()
        center_row = self._dist_rows[self._center]
        placed = np.zeros(num_qubits, dtype=bool)
        phys = np.zeros(num_qubits, dtype=np.intp)
        free = set(self.physical)
        layout: dict[int, int] = {}
        for lq in order:
            partners = np.flatnonzero((weights[lq] > 0) & placed)
            if partners.size == 0:
                # Nearest free qubit to the center.
                choice = min(free, key=center_row.__getitem__)
            else:
                cost = (weights[lq, partners] @ self._dist[phys[partners]]).tolist()
                choice = min(free, key=cost.__getitem__)
            layout[lq] = choice
            placed[lq] = True
            phys[lq] = choice
            free.discard(choice)
        return layout

    # ------------------------------------------------------------------
    def _route(
        self, ops: list[Op], layout: dict[int, int]
    ) -> tuple[list[Op], dict[int, int], int]:
        """SABRE-style SWAP insertion over the op list.

        ``to_phys`` maps logical → physical and ``to_logical`` back (−1 on
        an empty qubit); both are updated as swaps are applied.
        Single-qubit gates pass through; a two-qubit gate on non-adjacent
        physical qubits triggers swaps chosen to shrink the summed
        distance of the lookahead window.
        """
        dist = self._dist_rows
        to_phys = [0] * len(layout)
        to_logical = [-1] * self.num_physical_qubits
        for lq, p in layout.items():
            to_phys[lq] = p
            to_logical[p] = lq
        routed: list[Op] = []
        num_swaps = 0
        pending_2q = [q for _, q, _ in ops if len(q) == 2]
        next_2q_index = 0

        for name, qubits, params in ops:
            if len(qubits) == 1:
                routed.append((name, (to_phys[qubits[0]],), params))
                continue
            a, b = qubits
            guard = 0
            while dist[to_phys[a]][to_phys[b]] > 1:
                window = pending_2q[next_2q_index : next_2q_index + LOOKAHEAD]
                pa, pb = self._best_swap(to_phys, to_phys[a], to_phys[b], window)
                routed.append(("swap", (pa, pb), ()))
                num_swaps += 1
                la, lb = to_logical[pa], to_logical[pb]
                if la >= 0:
                    to_phys[la] = pb
                if lb >= 0:
                    to_phys[lb] = pa
                to_logical[pa], to_logical[pb] = lb, la
                guard += 1
                if guard > 4 * self.num_physical_qubits:  # pragma: no cover
                    raise RuntimeError("routing failed to converge")
            next_2q_index += 1
            routed.append((name, (to_phys[a], to_phys[b]), params))
        return routed, {lq: to_phys[lq] for lq in layout}, num_swaps

    def _best_swap(
        self,
        to_phys: list[int],
        pa: int,
        pb: int,
        window: list[tuple[int, ...]],
    ) -> tuple[int, int]:
        """Pick the coupler swap that most shrinks lookahead distance.

        Candidate swaps are the couplers incident to the blocked gate's
        physical qubits ``pa`` and ``pb``.  Score = distance of the
        blocked gate (weight 1) plus discounted distances of upcoming
        two-qubit gates, accumulated in window order.  The first
        candidate in the set's iteration order with the lowest score
        wins (a stable sort's first element).
        """
        candidates: set[tuple[int, int]] = set()
        for p in (pa, pb):
            for coupler in self._couplers[p]:
                candidates.add(coupler)
        dist = self._dist_rows
        front = [(to_phys[u], to_phys[v]) for u, v in window]
        best = None
        best_score = 0.0
        for swap in candidates:
            p1, p2 = swap
            total = 0.0
            discount = 1.0
            for u, v in front:
                u = p2 if u == p1 else p1 if u == p2 else u
                v = p2 if v == p1 else p1 if v == p2 else v
                total += discount * dist[u][v]
                discount *= 0.7
            if best is None or total < best_score:
                best, best_score = swap, total
        return best
