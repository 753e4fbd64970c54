"""Clique cover with ``n`` cliques (NP-complete).

Color the graph with ``n`` colors such that each color class induces a
clique.  One-hot NchooseK formulation (Section VI-A.e): per-vertex
one-hot ``nck({v_1..v_n}, {1})`` plus, for every *absent* edge
``(u, v) ∉ E`` and every color, ``nck({u_c, v_c}, {0, 1})`` — two
non-adjacent vertices may not share a color.  Two non-symmetric classes;
``|V| + n(|V|(|V|−1)/2 − |E|)`` constraints.

This is the problem behind the paper's Section VIII-A anecdotes: adding
edges *removes* constraints (fewer absent edges), shrinking the embedded
QUBO — 48 variables needed 188 physical qubits at 18 edges but only 52
at 63 edges.

Handcrafted QUBO (Lucas §6.2): one-hot penalties plus
``Σ_{(u,v)∉E} Σ_c x_{u,c} x_{v,c}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import networkx as nx

from ..core.env import Env
from ..qubo.model import QUBO
from .base import ProblemInstance
from .graphs import vertex_names


@dataclass
class CliqueCover(ProblemInstance):
    """Cover ``graph``'s vertices with ``num_cliques`` cliques."""

    graph: nx.Graph
    num_cliques: int
    complexity_class = "NP-C"
    table_name = "Clique Cover"
    _names: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_cliques < 1:
            raise ValueError("need at least one clique")
        self._names = vertex_names(self.graph)

    def var(self, vertex, clique: int) -> str:
        return f"{self._names[vertex]}_k{clique}"

    def absent_edges(self) -> list[tuple]:
        """Vertex pairs NOT joined by an edge (the constraint drivers)."""
        nodes = sorted(self.graph.nodes)
        return [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if not self.graph.has_edge(u, v)
        ]

    # ------------------------------------------------------------------
    def build_env(self) -> Env:
        env = Env()
        for v in self.graph.nodes:
            env.nck([self.var(v, k) for k in range(self.num_cliques)], [1])
        for u, v in self.absent_edges():
            for k in range(self.num_cliques):
                env.nck([self.var(u, k), self.var(v, k)], [0, 1])
        return env

    def handmade_qubo(self) -> QUBO:
        q = QUBO()
        for v in self.graph.nodes:
            q.offset += 1.0
            for k in range(self.num_cliques):
                q.add_linear(self.var(v, k), -1.0)
            for k in range(self.num_cliques):
                for k2 in range(k + 1, self.num_cliques):
                    q.add_quadratic(self.var(v, k), self.var(v, k2), 2.0)
        for u, v in self.absent_edges():
            for k in range(self.num_cliques):
                q.add_quadratic(self.var(u, k), self.var(v, k), 1.0)
        return q

    # ------------------------------------------------------------------
    def cover(self, assignment: Mapping[str, bool]) -> dict | None:
        out = {}
        for v in self.graph.nodes:
            ks = [k for k in range(self.num_cliques) if assignment[self.var(v, k)]]
            if len(ks) != 1:
                return None
            out[v] = ks[0]
        return out

    def verify(self, assignment: Mapping[str, bool]) -> bool:
        cover = self.cover(assignment)
        if cover is None:
            return False
        # Every same-clique pair must be adjacent.
        nodes = sorted(self.graph.nodes)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if cover[u] == cover[v] and not self.graph.has_edge(u, v):
                    return False
        return True
