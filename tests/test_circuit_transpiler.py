"""Unit tests for layout + SWAP routing transpilation."""

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.circuit import (
    Circuit,
    CircuitNoiseModel,
    Gate,
    Transpiler,
    brooklyn_coupling_map,
    full_coupling,
    heavy_hex_coupling,
    linear_coupling,
    qaoa_circuit,
)
from repro.circuit.gates import GATE_ARITY, GATE_PARAMS


def random_circuit(rng, n, depth) -> Circuit:
    c = Circuit(n)
    for _ in range(depth):
        if rng.random() < 0.5:
            c.add("rx", int(rng.integers(n)), float(rng.normal()))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.add("rzz", (int(a), int(b)), float(rng.normal()))
    return c


def assert_respects_coupling(circuit: Circuit, coupling: nx.Graph):
    for g in circuit.gates:
        if g.num_qubits == 2:
            assert coupling.has_edge(*g.qubits), f"{g} not on a coupler"


class TestCouplingMaps:
    def test_brooklyn_65(self):
        g = brooklyn_coupling_map()
        assert g.number_of_nodes() == 65
        assert max(dict(g.degree).values()) <= 3
        assert nx.is_connected(g)

    def test_heavy_hex_validation(self):
        with pytest.raises(ValueError):
            heavy_hex_coupling(row_lengths=(1,))

    def test_linear_and_full(self):
        assert linear_coupling(5).number_of_edges() == 4
        assert full_coupling(5).number_of_edges() == 10


class TestTranspile:
    def test_output_respects_coupling(self):
        rng = np.random.default_rng(0)
        coupling = brooklyn_coupling_map()
        transpiler = Transpiler(coupling)
        for trial in range(3):
            circ = random_circuit(rng, 8, 30)
            result = transpiler.transpile(circ)
            assert_respects_coupling(result.circuit, coupling)

    def test_output_is_basis_only(self):
        transpiler = Transpiler(brooklyn_coupling_map())
        circ = Circuit(3)
        circ.add("h", 0)
        circ.add("rzz", (0, 2), 0.4)
        result = transpiler.transpile(circ)
        assert result.circuit.is_basis_only()

    def test_adjacent_gates_need_no_swaps(self):
        coupling = linear_coupling(4)
        transpiler = Transpiler(coupling)
        circ = Circuit(2)
        circ.add("rzz", (0, 1), 0.3)
        result = transpiler.transpile(circ)
        assert result.num_swaps == 0

    def test_distant_gates_need_swaps(self):
        """On a line, interacting a triangle of qubits forces swaps."""
        coupling = linear_coupling(6)
        transpiler = Transpiler(coupling)
        circ = Circuit(3)
        circ.add("rzz", (0, 1), 0.1)
        circ.add("rzz", (1, 2), 0.1)
        circ.add("rzz", (0, 2), 0.1)
        # Repeat to defeat any lucky layout.
        for _ in range(3):
            circ.add("rzz", (0, 1), 0.1)
            circ.add("rzz", (1, 2), 0.1)
            circ.add("rzz", (0, 2), 0.1)
        result = transpiler.transpile(circ)
        assert result.num_swaps > 0
        assert_respects_coupling(result.circuit, coupling)

    def test_full_coupling_never_swaps(self):
        rng = np.random.default_rng(1)
        transpiler = Transpiler(full_coupling(8))
        circ = random_circuit(rng, 8, 40)
        assert transpiler.transpile(circ).num_swaps == 0

    def test_too_many_qubits_rejected(self):
        transpiler = Transpiler(linear_coupling(3))
        with pytest.raises(ValueError):
            transpiler.transpile(Circuit(4))

    def test_layout_covers_all_logical_qubits(self):
        transpiler = Transpiler(brooklyn_coupling_map())
        circ = random_circuit(np.random.default_rng(2), 6, 20)
        result = transpiler.transpile(circ)
        assert set(result.initial_layout) == set(range(6))
        assert len(set(result.initial_layout.values())) == 6

    def test_semantics_preserved(self):
        """Transpiled circuit computes the same distribution, modulo the
        final layout permutation."""
        from repro.circuit import StatevectorSimulator

        rng = np.random.default_rng(3)
        coupling = linear_coupling(4)
        transpiler = Transpiler(coupling)
        circ = random_circuit(rng, 4, 12)
        result = transpiler.transpile(circ)

        sim = StatevectorSimulator()
        probs_logical = sim.probabilities(circ)
        probs_physical = sim.probabilities(result.circuit)

        n = 4
        # Map each logical basis state through the final layout.
        for logical_state in range(2**n):
            bits = [(logical_state >> (n - 1 - i)) & 1 for i in range(n)]
            phys_state = 0
            for lq, pq in result.final_layout.items():
                if bits[lq]:
                    phys_state |= 1 << (result.circuit.num_qubits - 1 - pq)
            assert probs_physical[phys_state] == pytest.approx(
                probs_logical[logical_state], abs=1e-9
            )

    def test_depth_growth_on_sparse_coupling(self):
        """The same circuit is deeper on a line than with full coupling —
        the paper's routing-cost mechanism."""
        rng = np.random.default_rng(4)
        circ = random_circuit(rng, 6, 30)
        line = Transpiler(linear_coupling(6)).transpile(circ)
        full = Transpiler(full_coupling(6)).transpile(circ)
        assert line.depth >= full.depth


# ----------------------------------------------------------------------
# The transpiler as it was when it built gate objects: the oracle the
# list-and-array transpiler must match, result for result.


@dataclass
class OracleTranspileResult:
    """Routed circuit plus layout bookkeeping."""

    circuit: Circuit  # over physical qubits, basis gates only
    initial_layout: dict[int, int]  # logical → physical
    final_layout: dict[int, int]  # logical → physical after routing swaps
    num_swaps: int
    depth: int  # circuit.depth(), computed once when the result is built

    @property
    def physical_qubits_used(self) -> int:
        return len(self.circuit.qubits_touched())


class OracleTranspiler:
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
    def transpile(self, circuit: Circuit) -> OracleTranspileResult:
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

    def _finish(self, routed, layout, final_layout, num_swaps) -> OracleTranspileResult:
        """Decompose the routed circuit and package the result."""
        circuit = routed.decomposed()
        return OracleTranspileResult(
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


def oracle_transpile(oracle: OracleTranspiler, circuit: Circuit):
    """The oracle's routed circuit and result (its ``transpile`` body)."""
    layout = oracle._initial_layout(circuit)
    routed, final_layout, num_swaps = oracle._route(circuit, dict(layout))
    return routed, oracle._finish(routed, layout, final_layout, num_swaps)


def assert_matches_oracle(coupling: nx.Graph, circuit: Circuit) -> None:
    try:
        routed, expected = oracle_transpile(OracleTranspiler(coupling), circuit)
    except RuntimeError as exc:
        # The greedy router can swap back and forth without ever making
        # the blocked gate adjacent; it then gives up, and so must the
        # array router.
        with pytest.raises(RuntimeError, match=str(exc)):
            Transpiler(coupling).transpile(circuit)
        return
    result = Transpiler(coupling).transpile(circuit)
    assert list(result.initial_layout.items()) == list(expected.initial_layout.items())
    assert list(result.final_layout.items()) == list(expected.final_layout.items())
    assert result.num_swaps == expected.num_swaps
    assert result.routed == [(g.name, g.qubits, g.params) for g in routed.gates]
    assert result.depth == expected.depth
    assert result.num_two_qubit_gates == expected.circuit.num_two_qubit_gates()
    assert result.physical_qubits_used == expected.physical_qubits_used
    ends = [(g.qubits[0], g.qubits[-1]) for g in expected.circuit.gates]
    assert result.gate_ends.tolist() == [list(e) for e in ends]
    noise = CircuitNoiseModel(num_qubits=coupling.number_of_nodes())
    assert noise.fidelity(result.gate_ends) == noise.circuit_fidelity(expected.circuit)
    assert result.circuit.num_qubits == expected.circuit.num_qubits
    assert result.circuit.gates == expected.circuit.gates


@pytest.fixture(scope="module")
def qaoa_sweep_circuits():
    """The single-layer circuits ``CircuitDevice.transpile_qaoa`` builds for
    the Figures 8–10 points that fit the 65-qubit device."""
    from repro.experiments import fig8_10
    from repro.qubo import qubo_to_ising

    circuits = []
    for point in fig8_10.default_points():
        qubo = point.instance.build_env().to_qubo().qubo
        if qubo.num_variables <= 65:
            model = qubo_to_ising(qubo)
            circuits.append(
                qaoa_circuit(model, np.array([0.7]), np.array([0.3]), tuple(qubo.variables))
            )
    assert len(circuits) == 32
    return circuits


class TestMatchesGateObjectTranspiler:
    def test_qaoa_sweep_circuits(self, qaoa_sweep_circuits):
        coupling = brooklyn_coupling_map()
        for circuit in qaoa_sweep_circuits:
            assert_matches_oracle(coupling, circuit)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_circuits_with_ties(self, data):
        """Every gate kind, on small symmetric devices where layout costs
        and swap scores tie often."""
        kind = data.draw(st.sampled_from(["linear", "heavy-hex", "full"]))
        if kind == "linear":
            coupling = linear_coupling(data.draw(st.integers(2, 9)))
        elif kind == "full":
            coupling = full_coupling(data.draw(st.integers(2, 6)))
        else:
            rows = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
            coupling = heavy_hex_coupling(tuple(rows), spacing=data.draw(st.integers(2, 3)))
        size = coupling.number_of_nodes()
        n = data.draw(st.integers(1, size))
        names = sorted(n_ for n_ in GATE_ARITY if GATE_ARITY[n_] <= n)
        circuit = Circuit(n)
        for _ in range(data.draw(st.integers(0, 40))):
            name = data.draw(st.sampled_from(names))
            qubits = data.draw(
                st.lists(
                    st.integers(0, n - 1),
                    min_size=GATE_ARITY[name],
                    max_size=GATE_ARITY[name],
                    unique=True,
                )
            )
            params = tuple(
                data.draw(st.floats(-4.0, 4.0)) for _ in range(GATE_PARAMS[name])
            )
            circuit.add(name, qubits, *params)
        assert_matches_oracle(coupling, circuit)

    def test_tied_swaps_on_a_line(self):
        """End-to-end gates on a line: the swaps at either end tie."""
        circuit = Circuit(6)
        for a, b in [(0, 5), (1, 4), (0, 5), (2, 3), (0, 3), (5, 1)]:
            circuit.add("rzz", (a, b), 0.2)
        assert_matches_oracle(linear_coupling(6), circuit)

    def test_oscillating_swaps_fail_like_the_oracle(self):
        """Ten cx(0, 1) in the lookahead outweigh the blocked cx(2, 3), so
        both routers swap logical qubit 3 back and forth between two
        physical qubits and never route it."""
        circuit = Circuit(4)
        circuit.add("cx", (2, 3))
        circuit.add("h", 0)
        for _ in range(10):
            circuit.add("cx", (0, 1))
        circuit.add("cx", (0, 2))
        circuit.add("cx", (1, 2))
        with pytest.raises(RuntimeError, match="routing failed to converge"):
            oracle_transpile(OracleTranspiler(linear_coupling(5)), circuit)
        assert_matches_oracle(linear_coupling(5), circuit)

    def test_empty_circuit(self):
        result = Transpiler(linear_coupling(3)).transpile(Circuit(2))
        assert (result.depth, result.num_two_qubit_gates, result.physical_qubits_used) == (0, 0, 0)
        assert result.gate_ends.shape == (0, 2)
        assert_matches_oracle(linear_coupling(3), Circuit(2))


class TestCountsInsteadOfCircuit:
    def test_transpile_builds_no_basis_circuit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("basis circuit built")

        monkeypatch.setattr(Circuit, "decomposed", refuse)
        monkeypatch.setattr(Circuit, "depth", refuse)
        circuit = Circuit(4)
        for a, b in [(0, 3), (1, 2), (0, 2)]:
            circuit.add("rzz", (a, b), 0.1)
        result = Transpiler(brooklyn_coupling_map()).transpile(circuit)
        assert "circuit" not in vars(result)
        monkeypatch.undo()
        assert result.circuit is result.circuit  # built once, on first access

    def test_telemetry_reads_the_counts(self):
        circuit = Circuit(3)
        circuit.add("h", 0)
        circuit.add("rzz", (0, 2), 0.4)
        circuit.add("cz", (1, 2))
        previous = telemetry.get_recorder()
        rec = telemetry.enable()
        try:
            result = Transpiler(linear_coupling(5)).transpile(circuit)
        finally:
            telemetry.set_recorder(previous)
        assert rec.counter_value("circuit.transpiles") == 1
        assert rec.counter_value("circuit.swaps") == result.num_swaps
        assert rec.histograms["circuit.depth"].total == result.circuit.depth()
        assert (
            rec.histograms["circuit.two_qubit_gates"].total
            == result.circuit.num_two_qubit_gates()
        )

    def test_coupling_qubits_must_be_numbered_from_zero(self):
        coupling = nx.path_graph([1, 2, 3])
        with pytest.raises(ValueError, match="0..P-1"):
            Transpiler(coupling)
