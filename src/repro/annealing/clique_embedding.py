"""Deterministic crossing-lines clique embedding (dense-graph fallback).

The heuristic router (:mod:`repro.annealing.embedding`) excels on sparse,
structured interaction graphs but — like all Cai–Macready–Roy-style
routers — can thrash on dense ones.  Hardware vendors ship *native
clique embeddings* for exactly this reason: a deterministic template in
which chain ``i`` is an L-shape joining one full **vertical wire** and
one full **horizontal wire** of the lattice at their crossing.  Any two
such chains meet where ``i``'s vertical wire crosses ``j``'s horizontal
wire, so the template is a ``K_n`` minor — and therefore hosts *any*
source graph on ``n`` variables.

Both device families expose the needed wires:

* **Pegasus** ``P_m``: 12 vertical and 12 horizontal wires per offset
  lane (``12m`` each), each spanning ``m−1`` qubits via external
  couplers, crossing through internal couplers;
* **Chimera** ``C_{m,n,t}``: ``t`` wires per column/row of unit cells,
  crossing inside the ``K_{t,t}`` cells.

After assignment the template is greedily pruned: leg-end qubits are
dropped while every source edge keeps a coupler and every chain stays
connected — dense sources keep most of the cross, sparse ones shrink
substantially.
"""

from __future__ import annotations

import networkx as nx

from .embedding import Embedding, EmbeddingError


def clique_embedding(
    source: nx.Graph, target: nx.Graph, prune: bool = True
) -> Embedding:
    """Embed ``source`` via the crossing-lines clique template.

    ``target`` must be a graph produced by
    :func:`~repro.annealing.topology.pegasus_graph` or
    :func:`~repro.annealing.topology.chimera_graph` (the ``family``
    attribute and coordinate scheme are used), possibly with qubits
    removed (yield); wires with missing qubits are skipped.
    """
    n = source.number_of_nodes()
    if n == 0:
        return Embedding(chains={})
    v_lines, h_lines = _complete_lines(target)
    if len(v_lines) < n or len(h_lines) < n:
        raise EmbeddingError(
            f"clique template supports {min(len(v_lines), len(h_lines))} "
            f"variables on this device; source has {n}"
        )

    # Pair wires so every chain's own two wires cross, and every
    # vertical wire crosses every other chain's horizontal wire.  Full
    # wires cross in the complete lattice; yield gaps are handled by the
    # completeness filter above, so pairing by index suffices — verified
    # below, with defective combinations dropped.
    adjacency = {q: set(target.neighbors(q)) for q in target.nodes}

    def wires_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        bs = set(b)
        return any(not adjacency[q].isdisjoint(bs) for q in a)

    chosen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    hi = 0
    for vi in range(len(v_lines)):
        if len(chosen) == n:
            break
        while hi < len(h_lines) and not wires_cross(v_lines[vi], h_lines[hi]):
            hi += 1
        if hi == len(h_lines):
            break
        chosen.append((v_lines[vi], h_lines[hi]))
        hi += 1
    if len(chosen) < n:
        raise EmbeddingError("not enough crossing wire pairs on this device")

    variables = sorted(source.nodes, key=str)
    chains = {
        var: tuple(v + h) for var, (v, h) in zip(variables, chosen)
    }
    emb = Embedding(chains=chains)
    emb.validate(source, target)
    if prune:
        emb = _prune(emb, source, adjacency)
    return emb


# ---------------------------------------------------------------------------
# Wire extraction per topology
# ---------------------------------------------------------------------------


def _complete_lines(target: nx.Graph):
    family = target.graph.get("family")
    if family == "pegasus":
        return _pegasus_lines(target)
    if family == "chimera":
        return _chimera_lines(target)
    raise EmbeddingError(
        f"clique embedding supports pegasus/chimera targets, not {family!r}"
    )


def _pegasus_lines(target: nx.Graph):
    m = target.graph["size"]

    def label(u: int, w: int, k: int, z: int) -> int:
        return ((u * m + w) * 12 + k) * (m - 1) + z

    nodes = set(target.nodes)
    v_lines, h_lines = [], []
    for u, out in ((0, v_lines), (1, h_lines)):
        for w in range(m):
            for k in range(12):
                line = tuple(label(u, w, k, z) for z in range(m - 1))
                if all(q in nodes for q in line):
                    out.append(line)
    return v_lines, h_lines


def _chimera_lines(target: nx.Graph):
    m, n, t = target.graph["rows"], target.graph["cols"], target.graph["tile"]

    def label(row: int, col: int, shore: int, k: int) -> int:
        return ((row * n + col) * 2 + shore) * t + k

    nodes = set(target.nodes)
    v_lines, h_lines = [], []
    for col in range(n):
        for k in range(t):
            line = tuple(label(row, col, 0, k) for row in range(m))
            if all(q in nodes for q in line):
                v_lines.append(line)
    for row in range(m):
        for k in range(t):
            line = tuple(label(row, col, 1, k) for col in range(n))
            if all(q in nodes for q in line):
                h_lines.append(line)
    return v_lines, h_lines


# ---------------------------------------------------------------------------
# Greedy pruning
# ---------------------------------------------------------------------------


def _prune(emb: Embedding, source: nx.Graph, adjacency: dict[int, set[int]]) -> Embedding:
    """Drop chain-end qubits while the embedding stays valid.

    Each chain is treated as a set; a qubit may be removed when (a) the
    chain's induced subgraph stays connected and (b) every incident
    source edge still has an inter-chain coupler (``adjacency`` maps each
    target qubit to its neighbours).  Ends are retried until a full pass
    removes nothing.
    """
    chains = {v: set(c) for v, c in emb.chains.items()}

    def edge_ok(u, v) -> bool:
        cv = chains[v]
        return any(not adjacency[q].isdisjoint(cv) for q in chains[u])

    changed = True
    while changed:
        changed = False
        for var in chains:
            chain = chains[var]
            if len(chain) == 1:
                continue
            # Candidates: qubits with ≤1 neighbor inside the chain (leaf
            # of the chain's tree) — removal keeps connectivity.
            for q in sorted(chain):
                inside = len(adjacency[q] & chain)
                if inside > 1:
                    continue
                chain.discard(q)
                if all(edge_ok(var, u) for u in source.neighbors(var)):
                    changed = True
                else:
                    chain.add(q)
    return Embedding(chains={v: tuple(sorted(c)) for v, c in chains.items()})
