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

The output is a physical-basis circuit whose :meth:`~repro.circuit.circuit.Circuit.depth`
is the Figure 9/10 metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .. import telemetry
from .circuit import Circuit
from .gates import Gate


@dataclass
class TranspileResult:
    """Routed circuit plus layout bookkeeping."""

    circuit: Circuit  # over physical qubits, basis gates only
    initial_layout: dict[int, int]  # logical → physical
    final_layout: dict[int, int]  # logical → physical after routing swaps
    num_swaps: int
    depth: int  # circuit.depth(), computed once when the result is built

    @property
    def physical_qubits_used(self) -> int:
        return len(self.circuit.qubits_touched())


class Transpiler:
    """Layout + routing + basis decomposition for one coupling map."""

    def __init__(self, coupling: nx.Graph) -> None:
        if coupling.number_of_nodes() == 0:
            raise ValueError("empty coupling map")
        self.coupling = coupling
        self.physical = sorted(coupling.nodes)
        self._dist = dict(nx.all_pairs_shortest_path_length(coupling))
        # Device center: the qubit minimizing total distance to all others.
        self._center = min(self.physical, key=lambda p: sum(self._dist[p].values()))

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
            layout = self._initial_layout(circuit)
            routed, final_layout, num_swaps = self._route(circuit, dict(layout))
            result = self._finish(routed, layout, final_layout, num_swaps)
            telemetry.count("circuit.transpiles")
            telemetry.count("circuit.swaps", num_swaps)
            telemetry.observe("circuit.depth", result.depth)
            telemetry.observe(
                "circuit.two_qubit_gates", result.circuit.num_two_qubit_gates()
            )
            sp.set(depth=result.depth, num_swaps=num_swaps)
            return result

    def _finish(self, routed, layout, final_layout, num_swaps) -> TranspileResult:
        """Decompose the routed circuit and package the result."""
        circuit = routed.decomposed()
        return TranspileResult(
            circuit=circuit,
            initial_layout=layout,
            final_layout=final_layout,
            num_swaps=num_swaps,
            depth=circuit.depth(),
        )

    # ------------------------------------------------------------------
    def _interaction_graph(self, circuit: Circuit) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(circuit.num_qubits))
        for gate in circuit.gates:
            if gate.num_qubits == 2:
                a, b = gate.qubits
                w = g.get_edge_data(a, b, {"weight": 0})["weight"]
                g.add_edge(a, b, weight=w + 1)
        return g

    def _initial_layout(self, circuit: Circuit) -> dict[int, int]:
        """Greedy interaction-aware placement.

        Logical qubits are placed in descending weighted-degree order;
        each goes to the free physical qubit minimizing the (weighted)
        distance to its already-placed interaction partners.  The first
        qubit lands on a maximum-degree physical qubit nearest the device
        "center" (eccentricity-minimal), mirroring how small problems get
        the best-connected region — the paper notes small problems can
        pick the best qubits while large ones spill into worse ones.
        """
        ig = self._interaction_graph(circuit)
        order = sorted(
            ig.nodes, key=lambda q: -sum(d["weight"] for d in ig[q].values())
        )
        center = self._center
        free = set(self.physical)
        layout: dict[int, int] = {}
        for lq in order:
            placed = [u for u in ig.neighbors(lq) if u in layout]
            if not placed:
                # Nearest free qubit to the center.
                choice = min(free, key=lambda p: self._dist[center].get(p, np.inf))
            else:
                def cost(p: int) -> float:
                    return sum(
                        ig[lq][u]["weight"] * self._dist[p].get(layout[u], np.inf)
                        for u in placed
                    )

                choice = min(free, key=cost)
            layout[lq] = choice
            free.discard(choice)
        return layout

    # ------------------------------------------------------------------
    def _route(
        self, circuit: Circuit, layout: dict[int, int]
    ) -> tuple[Circuit, dict[int, int], int]:
        """SABRE-style SWAP insertion over the gate list.

        ``layout`` maps logical → physical and is updated as swaps are
        applied.  Single-qubit gates pass through; a two-qubit gate on
        non-adjacent physical qubits triggers swaps chosen to shrink the
        summed distance of the lookahead window.
        """
        LOOKAHEAD = 8
        routed = Circuit(self.num_physical_qubits)
        num_swaps = 0
        gates = circuit.gates
        pending_2q = [g for g in gates if g.num_qubits == 2]
        next_2q_index = 0

        for gi, gate in enumerate(gates):
            if gate.num_qubits == 1:
                routed.append(gate.remapped(layout))
                continue
            next_2q_index += 1
            a, b = gate.qubits
            guard = 0
            while self._dist[layout[a]].get(layout[b], np.inf) > 1:
                window = pending_2q[next_2q_index - 1 : next_2q_index - 1 + LOOKAHEAD]
                swap = self._best_swap(layout, (a, b), window)
                pa, pb = swap
                routed.append(Gate("swap", (pa, pb)))
                num_swaps += 1
                inv = {p: l for l, p in layout.items()}
                la, lb = inv.get(pa), inv.get(pb)
                if la is not None:
                    layout[la] = pb
                if lb is not None:
                    layout[lb] = pa
                guard += 1
                if guard > 4 * self.num_physical_qubits:  # pragma: no cover
                    raise RuntimeError("routing failed to converge")
            routed.append(gate.remapped(layout))
        return routed, layout, num_swaps

    def _best_swap(
        self,
        layout: dict[int, int],
        current: tuple[int, int],
        window: list[Gate],
    ) -> tuple[int, int]:
        """Pick the coupler swap that most shrinks lookahead distance.

        Candidate swaps are the couplers incident to the two qubits of the
        blocked gate.  Score = distance of the blocked gate (weight 1)
        plus discounted distances of upcoming two-qubit gates.
        """
        a, b = current
        pa, pb = layout[a], layout[b]
        candidates: set[tuple[int, int]] = set()
        for p in (pa, pb):
            for nbr in self.coupling.neighbors(p):
                candidates.add((p, nbr) if p < nbr else (nbr, p))

        inv = {p: l for l, p in layout.items()}

        def score(swap: tuple[int, int]) -> float:
            p1, p2 = swap
            trial = dict(layout)
            l1, l2 = inv.get(p1), inv.get(p2)
            if l1 is not None:
                trial[l1] = p2
            if l2 is not None:
                trial[l2] = p1
            total = 0.0
            discount = 1.0
            for g in window:
                u, v = g.qubits
                total += discount * self._dist[trial[u]][trial[v]]
                discount *= 0.7
            return total

        scored = sorted(candidates, key=score)
        return scored[0]
