"""Minor embedding of problem graphs into hardware topologies.

A QUBO's interaction graph rarely matches the annealer's working graph, so
each logical variable is mapped to a *chain* of physical qubits coupled
ferromagnetically to act as one (Section VIII-A of the paper: "a variable
may need to be mapped to a chain of qubits to establish these couplings.
Hence, the more densely connected the problem, the more qubits are
required to represent each variable").

The embedder implements the Cai–Macready–Roy heuristic (the algorithm
behind D-Wave's minorminer): variables are routed one at a time with
shortest paths through the hardware graph, where traversing a qubit
already claimed by other chains is allowed but exponentially penalized;
improvement sweeps then re-route each variable against the others until no
qubit is shared.  An attempt ends once two sweeps in a row leave the
overuse Σ max(usage − 1, 0) no lower than its best so far; on Figure 7
embedding streams no attempt that stalled this way went on to succeed.
Path search runs on :func:`scipy.sparse.csgraph.dijkstra` over a CSR adjacency
reweighted with current usage penalties, keeping the hot loop out of Python.

Routing starts in a *window*, the first ``WINDOW_FACTOR · |V|`` qubits in
breadth-first order from a central qubit (the tiling idea behind D-Wave's
``TilingComposite``), and the window doubles after ``max_attempts``
failures, up to the whole graph.  An attempt makes at most ``(3 +
max_sweeps) · |V|`` routes, so a call makes at most ``max_attempts`` times
that per window.  The layout a router needs of its target (the CSR
adjacency, the sorted qubits and the central breadth-first order) is
built once per frozen target, such as the working graph the device
profiles share, and each call routes on its own copy of the weights.

The resulting physical-qubit counts — the paper's "number of qubits used
on the D-Wave" axis in Figure 7 — grow with problem connectivity exactly
as the paper describes (e.g. its clique-cover anecdote where *fewer*
constraints mean *fewer* physical qubits at the same variable count).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .. import telemetry
from ..core.types import NckError


class EmbeddingError(NckError):
    """No minor embedding was found within the attempt budget."""


@dataclass
class Embedding:
    """A minor embedding: variable name → chain of physical qubits."""

    chains: dict[str, tuple[int, ...]]

    @property
    def num_physical_qubits(self) -> int:
        """Total physical qubits used (the Figure 7 x-axis)."""
        return sum(len(c) for c in self.chains.values())

    @property
    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains.values()), default=0)

    @property
    def mean_chain_length(self) -> float:
        if not self.chains:
            return 0.0
        return self.num_physical_qubits / len(self.chains)

    def validate(self, source: nx.Graph, target: nx.Graph) -> None:
        """Raise ``EmbeddingError`` unless this is a valid minor embedding.

        Checks: chains are nonempty, connected in ``target``, pairwise
        disjoint, and every source edge has at least one coupler between
        the two chains.
        """
        seen: set[int] = set()
        for var, chain in self.chains.items():
            if not chain:
                raise EmbeddingError(f"empty chain for {var}")
            if seen & set(chain):
                raise EmbeddingError(f"chain overlap at {var}")
            seen.update(chain)
            if not nx.is_connected(target.subgraph(chain)):
                raise EmbeddingError(f"disconnected chain for {var}")
        for u, v in source.edges:
            chain_u, chain_v = self.chains[u], self.chains[v]
            if not any(target.has_edge(a, b) for a in chain_u for b in chain_v):
                raise EmbeddingError(f"no coupler between chains of {u} and {v}")


#: Mean source degree above which the deterministic clique template is
#: tried before the heuristic router (dense graphs thrash CMR-style
#: routers; the template is immediate).
DENSE_DEGREE_THRESHOLD = 6.0

#: Qubits per source variable in the router's first window.  Chosen on
#: Figure 7 embedding streams: 16 stalls on some, 64 is slower (DESIGN.md §7).
WINDOW_FACTOR = 32


def find_embedding(
    source: nx.Graph,
    target: nx.Graph,
    rng: np.random.Generator | None = None,
    max_attempts: int = 3,
    max_sweeps: int = 12,
) -> Embedding:
    """Minor-embed ``source`` into ``target``.

    Two strategies, ordered by source density: the Cai–Macready–Roy
    heuristic router (compact embeddings for sparse/structured graphs)
    and the deterministic crossing-lines clique template
    (:mod:`repro.annealing.clique_embedding`; handles arbitrarily dense
    sources on Pegasus/Chimera targets).  Whichever is tried first, the
    other serves as fallback.

    The router makes ``max_attempts`` attempts in each breadth-first
    window of ``WINDOW_FACTOR · |V|``, twice that, … qubits, then in the
    whole target.  An attempt ends when overlaps are gone, after
    ``max_sweeps`` sweeps, or when two sweeps in a row leave the overuse
    no lower than its best so far; it makes at most ``(3 + max_sweeps) ·
    |V|`` routes.  Equal ``rng`` states give identical chains.

    Parameters
    ----------
    source:
        Logical interaction graph (variable names as nodes).
    target:
        Hardware working graph (integer qubits).
    rng:
        Randomness for routing order across restarts.
    max_attempts:
        Router restart budget per window.
    max_sweeps:
        Router overlap-resolution sweeps per attempt.
    """
    if source.number_of_nodes() == 0:
        return Embedding(chains={})
    if source.number_of_nodes() > target.number_of_nodes():
        raise EmbeddingError(
            f"{source.number_of_nodes()} variables exceed "
            f"{target.number_of_nodes()} physical qubits"
        )
    rng = rng or np.random.default_rng()

    mean_degree = 2.0 * source.number_of_edges() / source.number_of_nodes()
    dense = mean_degree > DENSE_DEGREE_THRESHOLD
    attempts = 0

    def try_router() -> tuple[Embedding, int]:
        nonlocal attempts
        last_error: Exception | None = None
        size = WINDOW_FACTOR * source.number_of_nodes()
        for router in _Router.of(target).windows(size):
            for _attempt in range(max_attempts):
                attempts += 1
                telemetry.count("anneal.embed.attempts")
                try:
                    emb = Embedding(chains=router.embed(source, rng, max_sweeps))
                    emb.validate(source, target)
                    return emb, router.n
                except EmbeddingError as exc:
                    telemetry.count("anneal.embed.restarts")
                    last_error = exc
        raise EmbeddingError(f"no embedding in {max_attempts} attempts per window: {last_error}")

    def try_clique() -> tuple[Embedding, int]:
        nonlocal attempts
        from .clique_embedding import clique_embedding

        attempts += 1
        telemetry.count("anneal.embed.attempts")
        return clique_embedding(source, target), target.number_of_nodes()

    first, second = (try_clique, try_router) if dense else (try_router, try_clique)
    with telemetry.span(
        "anneal.embed",
        variables=source.number_of_nodes(),
        edges=source.number_of_edges(),
        strategy="clique-first" if dense else "router-first",
    ) as sp:
        try:
            embedding, window_qubits = first()
        except EmbeddingError as primary:
            try:
                embedding, window_qubits = second()
            except EmbeddingError as fallback:
                telemetry.count("anneal.embed.failures")
                sp.set(attempts=attempts)
                raise EmbeddingError(
                    f"both strategies failed: {primary}; fallback: {fallback}"
                ) from fallback
        for chain in embedding.chains.values():
            telemetry.observe("anneal.embed.chain_length", len(chain))
        sp.set(
            physical_qubits=embedding.num_physical_qubits,
            max_chain_length=embedding.max_chain_length,
            attempts=attempts,
            window_qubits=window_qubits,
        )
        return embedding


class _Router:
    """CMR routing state over one hardware graph or a window of it."""

    #: Base multiplicative penalty per existing chain on a qubit.  Paths
    #: may cross used qubits, but each crossing costs this factor more;
    #: the factor escalates across improvement sweeps to force
    #: convergence (like minorminer's inner/outer loop).
    USAGE_PENALTY = 16.0

    def __init__(
        self, graph: csr_matrix, qubits: list[int], order: np.ndarray | None = None
    ) -> None:
        # Symmetric adjacency over local indices; _route rewrites its
        # weights in place (data[k] weighs the edge into indices[k]), so
        # no two routers share one matrix.  ``order`` is the whole-target
        # breadth-first order behind :meth:`windows`.
        self._graph = graph
        self.qubits = qubits
        self.n = len(qubits)
        self._order = order

    @classmethod
    def of(cls, target: nx.Graph) -> _Router:
        """The router over the whole of ``target``.

        A frozen ``target`` (such as the shared device graphs) cannot
        change, so its layout is built once and kept for as long as the
        graph lives; every router gets its own copy of the weights.
        """
        if nx.is_frozen(target):
            with _LAYOUTS_LOCK:
                layout = _LAYOUTS.get(target)
                if layout is None:
                    layout = _LAYOUTS[target] = _layout(target)
        else:
            layout = _layout(target)
        graph, qubits, order = layout
        return cls(graph.copy(), qubits, order)

    def windows(self, size: int):
        """Routers over the first ``size``, ``2·size``, … qubits in
        breadth-first order from a central qubit, then this router."""
        while size < self._order.size:
            idx = np.sort(self._order[:size])
            yield _Router(self._graph[idx][:, idx], [self.qubits[i] for i in idx])
            size *= 2
        yield self

    # ------------------------------------------------------------------
    def embed(
        self, source: nx.Graph, rng: np.random.Generator, max_sweeps: int
    ) -> dict[str, tuple[int, ...]]:
        variables = list(source.nodes)
        usage = np.zeros(self.n, dtype=np.int32)
        chains: dict = {}

        # Initial routing pass, overlaps allowed.  BFS order through the
        # source graph (random root per component) so that every variable
        # after the first routes next to an already-placed neighbor —
        # scattering unconnected variables across the chip first would
        # force chip-spanning chains later.
        order = _bfs_order(source, rng)
        for var in order:
            chains[var] = self._route(source, var, chains, usage, rng, 1.0)
            usage[list(chains[var])] += 1

        # Improvement sweeps: tear out and re-route every chain, in a
        # fresh random order each sweep with an escalating usage penalty.
        # Re-routing all variables (not just contended ones) lets the
        # whole layout shift — congested regions cannot hide behind a
        # wall of "innocent" chains.  Two sweeps in a row that leave the
        # overuse no lower than its best so far end the attempt.
        escalation = 1.0
        best, stalled = int(np.maximum(usage - 1, 0).sum()), 0
        for _sweep in range(max_sweeps):
            if best == 0 or stalled == 2:
                break
            for i in rng.permutation(len(variables)):
                var = variables[i]
                usage[list(chains[var])] -= 1
                chains[var] = self._route(source, var, chains, usage, rng, escalation)
                usage[list(chains[var])] += 1
            escalation = min(escalation * 2.0, 2.0**8)
            overuse = int(np.maximum(usage - 1, 0).sum())
            best, stalled = (overuse, 0) if overuse < best else (best, stalled + 1)

        if usage.max() > 1:
            raise EmbeddingError("chain overlaps remain after improvement sweeps")

        # Feasible; two more sweeps shrink total chain length (accept a
        # re-route only if it stays feasible and is no longer).
        for _sweep in range(2):
            for var in sorted(variables, key=lambda v: -len(chains[v])):
                old = chains[var]
                usage[list(old)] -= 1
                new = self._route(source, var, chains, usage, rng, escalation)
                if len(new) <= len(old) and not usage[list(new)].any():
                    chains[var] = new
                usage[list(chains[var])] += 1

        return {
            v: tuple(self.qubits[i] for i in sorted(chain)) for v, chain in chains.items()
        }

    # ------------------------------------------------------------------
    def _route(
        self,
        source: nx.Graph,
        var,
        chains: dict,
        usage: np.ndarray,
        rng: np.random.Generator,
        escalation: float,
    ) -> set[int]:
        placed = [u for u in source.neighbors(var) if u in chains]
        penalty_factor = self.USAGE_PENALTY * escalation
        penalties = penalty_factor ** np.minimum(usage, 3).astype(float)

        if not placed:
            # Isolated (or first) variable: any cheapest qubit will do.
            candidates = np.flatnonzero(penalties == penalties.min())
            return {int(candidates[int(rng.integers(candidates.size))])}

        # One multi-source Dijkstra per placed neighbor, seeded at every
        # qubit of that neighbor's chain.  Edge weight = penalty of the
        # head qubit, so a path's cost sums the penalties of the qubits it
        # would claim (source-chain qubits cost nothing).
        self._graph.data = penalties[self._graph.indices]
        dists = np.empty((len(placed), self.n))
        preds = np.empty((len(placed), self.n), dtype=np.int32)
        in_chain = np.zeros((len(placed), self.n), dtype=bool)
        for j, u in enumerate(placed):
            chain_idx = np.fromiter(chains[u], dtype=np.int64, count=len(chains[u]))
            in_chain[j, chain_idx] = True
            d, p, _src = dijkstra(
                self._graph,
                directed=True,
                indices=chain_idx,
                return_predecessors=True,
                min_only=True,
            )
            # Source qubits have distance 0 but belong to the neighbor;
            # their *own* penalty was never charged, correctly.
            dists[j] = d
            preds[j] = p

        # Root choice: minimize total path cost, counting the root's own
        # penalty once instead of once per neighbor; never root inside a
        # neighbor's chain (that would fuse the chains).
        total = dists.sum(axis=0) - (len(placed) - 1) * penalties
        total[~np.isfinite(dists).all(axis=0)] = np.inf
        total[in_chain.any(axis=0)] = np.inf
        if not np.isfinite(total).any():
            raise EmbeddingError(f"variable {var} is unreachable from its neighbors")
        root = int(total.argmin())

        chain = {root}
        for j in range(len(placed)):
            node = root
            while not in_chain[j, node]:
                chain.add(node)
                prev = int(preds[j, node])
                if prev < 0:  # reached a source qubit (pred of source = -9999)
                    break
                node = prev
        return chain


#: Router layouts of frozen targets, dropped with their graph.
_LAYOUTS: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = weakref.WeakKeyDictionary()
_LAYOUTS_LOCK = threading.Lock()


def _layout(target: nx.Graph) -> tuple[csr_matrix, list[int], np.ndarray]:
    """Unit-weight CSR adjacency of ``target`` over its sorted qubits, the
    qubits, and their breadth-first order from a central qubit."""
    qubits = sorted(target.nodes)
    index = {q: i for i, q in enumerate(qubits)}
    edges = np.array([(index[a], index[b]) for a, b in target.edges]).reshape(-1, 2).T
    tails, heads = np.concatenate([edges, edges[::-1]], axis=1)
    n = len(qubits)
    graph = csr_matrix((np.ones(tails.size), (tails, heads)), shape=(n, n))
    # Double-sweep BFS: the middle of a longest breadth-first path from a
    # farthest qubit sits near the centre of the lattice.
    start = int(np.diff(graph.indptr).argmax())
    far = breadth_first_order(graph, start, return_predecessors=False)[-1]
    order, preds = breadth_first_order(graph, far)
    path = [order[-1]]
    while preds[path[-1]] >= 0:
        path.append(preds[path[-1]])
    order = breadth_first_order(graph, path[len(path) // 2], return_predecessors=False)
    return graph, qubits, order


def _bfs_order(source: nx.Graph, rng: np.random.Generator) -> list:
    """BFS traversal order of ``source``, random root per component."""
    order: list = []
    seen: set = set()
    nodes = list(source.nodes)
    for start_i in rng.permutation(len(nodes)):
        start = nodes[start_i]
        if start not in seen:
            component = [start] + [v for _u, v in nx.bfs_edges(source, start)]
            seen.update(component)
            order += component
    return order
