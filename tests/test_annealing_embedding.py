"""Unit tests for minor embedding."""

import sys
import threading

import networkx as nx
import numpy as np
import pytest

from repro.annealing import EmbeddingError, chimera_graph, find_embedding, pegasus_graph
from repro.annealing.embedding import Embedding


@pytest.fixture(scope="module")
def pegasus4():
    return pegasus_graph(4)


class TestFindEmbedding:
    def test_identity_like_embedding(self, pegasus4):
        """A subgraph of the target embeds with short chains."""
        g = nx.path_graph(5)
        g = nx.relabel_nodes(g, {i: f"n{i}" for i in g.nodes})
        emb = find_embedding(g, pegasus4, np.random.default_rng(0))
        emb.validate(g, pegasus4)
        assert emb.max_chain_length <= 2

    def test_k4_embeds(self, pegasus4):
        g = nx.relabel_nodes(nx.complete_graph(4), {i: f"n{i}" for i in range(4)})
        emb = find_embedding(g, pegasus4, np.random.default_rng(0))
        emb.validate(g, pegasus4)

    def test_k8_needs_chains(self, pegasus4):
        """K8 exceeds Pegasus degree for single qubits per variable."""
        g = nx.relabel_nodes(nx.complete_graph(8), {i: f"n{i}" for i in range(8)})
        emb = find_embedding(g, pegasus4, np.random.default_rng(1))
        emb.validate(g, pegasus4)
        assert emb.num_physical_qubits > 8

    def test_triangle_chain_on_chimera(self):
        """The vertex-scaling family embeds on Chimera too."""
        from repro.problems import vertex_scaling_graph

        g = vertex_scaling_graph(3)
        g = nx.relabel_nodes(g, {i: f"v{i}" for i in g.nodes})
        target = chimera_graph(4)
        emb = find_embedding(g, target, np.random.default_rng(2))
        emb.validate(g, target)

    def test_empty_source(self, pegasus4):
        emb = find_embedding(nx.Graph(), pegasus4)
        assert emb.chains == {}

    def test_too_many_variables(self):
        target = chimera_graph(1, 1, 2)  # 4 qubits
        g = nx.path_graph(10)
        with pytest.raises(EmbeddingError):
            find_embedding(g, target, np.random.default_rng(0))

    def test_impossible_embedding_raises(self):
        """K5 cannot embed in a 5-qubit path (not enough spare qubits)."""
        target = nx.path_graph(5)
        g = nx.complete_graph(5)
        with pytest.raises(EmbeddingError):
            find_embedding(g, target, np.random.default_rng(0), max_attempts=2)

    def test_disconnected_source(self, pegasus4):
        g = nx.Graph()
        g.add_edge("a", "b")
        g.add_edge("c", "d")
        emb = find_embedding(g, pegasus4, np.random.default_rng(3))
        emb.validate(g, pegasus4)


class TestRouterBounds:
    def test_failed_call_stops_within_route_bound(self, monkeypatch):
        """A call that cannot embed raises after at most (1 + max_sweeps)·|V|
        routes per attempt: a stalled attempt ends instead of sweeping on."""
        from repro.annealing import embedding

        g = nx.gnp_random_graph(14, 0.3, seed=0)
        g = nx.relabel_nodes(g, {i: f"n{i}" for i in g.nodes})
        calls = 0
        route = embedding._Router._route

        def counting_route(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return route(self, *args, **kwargs)

        monkeypatch.setattr(embedding._Router, "_route", counting_route)
        with pytest.raises(EmbeddingError):
            find_embedding(g, chimera_graph(3), np.random.default_rng(0), max_attempts=1)
        assert 0 < calls <= (1 + 12) * 14

    def test_equal_seeds_give_identical_chains(self):
        """Seeded embeddings repeat exactly, also on an unfrozen copy of the
        shared target (which bypasses the layout memo), and this one
        routes inside a window smaller than the chip."""
        from repro import telemetry
        from repro.annealing.device import AnnealingDeviceProfile
        from repro.problems import MapColoring, vertex_scaling_graph

        program = MapColoring(vertex_scaling_graph(3), 3).build_env().to_qubo()
        g = nx.Graph()
        g.add_nodes_from(program.qubo.variables)
        g.add_edges_from(program.qubo.quadratic.keys())
        target = AnnealingDeviceProfile.advantage41().topology
        rec = telemetry.enable()
        try:
            first = find_embedding(g, target, np.random.default_rng(5))
            second = find_embedding(g, target, np.random.default_rng(5))
            unfrozen = find_embedding(g, nx.Graph(target), np.random.default_rng(5))
        finally:
            telemetry.disable()
        assert first.chains == second.chains == unfrozen.chains
        first.validate(g, target)
        spans = [s for s in rec.spans if s.name == "anneal.embed"]
        assert [s.attributes["strategy"] for s in spans] == ["router-first"] * 3
        assert all(s.attributes["attempts"] >= 1 for s in spans)
        assert all(s.attributes["window_qubits"] < target.number_of_nodes() for s in spans)

    @pytest.mark.parametrize("chip", ["advantage41", "p4"])
    def test_concurrent_calls_route_on_their_own_weights(self, chip):
        """Two threads embedding on one frozen target get the chains of
        sequential calls: each router rewrites only its own weights.  On
        the Advantage-4.1 graph the calls route in windows; a frozen P4 is
        small enough that they route on the whole memoized layout."""
        from repro.annealing.device import AnnealingDeviceProfile

        if chip == "p4":
            target = nx.freeze(pegasus_graph(4))
        else:
            target = AnnealingDeviceProfile.advantage41().topology
        graphs = [
            nx.relabel_nodes(nx.gnp_random_graph(12, 0.3, seed=s), lambda i: f"n{i}")
            for s in (1, 2)
        ]
        expected = [
            find_embedding(g, target, np.random.default_rng(i)).chains
            for i, g in enumerate(graphs)
        ]
        got: list[list] = [[], []]

        def embed_rounds(i):
            for _ in range(5):
                got[i].append(find_embedding(graphs[i], target, np.random.default_rng(i)).chains)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=embed_rounds, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expected[0]] * 5, [expected[1]] * 5]


class TestEmbeddingProperties:
    def test_counts(self):
        emb = Embedding(chains={"a": (0, 1), "b": (2,)})
        assert emb.num_physical_qubits == 3
        assert emb.max_chain_length == 2
        assert emb.mean_chain_length == 1.5

    def test_empty(self):
        emb = Embedding(chains={})
        assert emb.num_physical_qubits == 0
        assert emb.max_chain_length == 0
        assert emb.mean_chain_length == 0.0


class TestValidate:
    def test_detects_overlap(self):
        target = nx.path_graph(4)
        source = nx.Graph([("a", "b")])
        emb = Embedding(chains={"a": (0, 1), "b": (1, 2)})
        with pytest.raises(EmbeddingError, match="overlap"):
            emb.validate(source, target)

    def test_detects_disconnected_chain(self):
        target = nx.path_graph(5)
        source = nx.Graph([("a", "b")])
        emb = Embedding(chains={"a": (0, 2), "b": (1,)})
        with pytest.raises(EmbeddingError, match="disconnected"):
            emb.validate(source, target)

    def test_detects_missing_coupler(self):
        target = nx.path_graph(5)
        source = nx.Graph([("a", "b")])
        emb = Embedding(chains={"a": (0,), "b": (4,)})
        with pytest.raises(EmbeddingError, match="coupler"):
            emb.validate(source, target)

    def test_detects_empty_chain(self):
        target = nx.path_graph(3)
        source = nx.Graph()
        source.add_node("a")
        emb = Embedding(chains={"a": ()})
        with pytest.raises(EmbeddingError, match="empty"):
            emb.validate(source, target)


class TestConnectivityDrivesQubitUse:
    def test_denser_problems_use_more_physical_qubits(self, pegasus4):
        """Section VIII-A: 'the more densely connected the problem, the
        more qubits are required to represent each variable.'"""
        rng = np.random.default_rng(4)
        sparse = nx.relabel_nodes(nx.cycle_graph(10), {i: f"n{i}" for i in range(10)})
        dense = nx.relabel_nodes(nx.complete_graph(10), {i: f"n{i}" for i in range(10)})
        emb_sparse = find_embedding(sparse, pegasus4, rng)
        emb_dense = find_embedding(dense, pegasus4, rng)
        assert emb_dense.num_physical_qubits > emb_sparse.num_physical_qubits
