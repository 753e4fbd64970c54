"""The annealing-device backend (D-Wave Advantage 4.1 stand-in).

Executing an NchooseK program on this device follows the same pipeline as
the paper's Ocean path:

1. compile the program to a QUBO (Section V) and convert to Ising form;
2. minor-embed the interaction graph into the device topology — each
   logical variable becomes a ferromagnetic chain of physical qubits;
3. apply the chain couplings (strength scaled to the problem's largest
   coefficient) and one ICE-noise realization of the programmed
   Hamiltonian;
4. anneal ``num_reads`` times (simulated annealing over physical spins);
5. unembed: a broken chain (disagreeing spins) is resolved by majority
   vote; energies are re-evaluated against the *noiseless logical* model,
   exactly as the SAPI stack reports them.

The device profile carries the topology, qubit yield, noise model, and
the Section VIII-C timing constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import networkx as nx
import numpy as np

from .. import telemetry
from ..compile.program import CompiledProgram
from ..core.solution import SampleSet, Solution
from ..qubo.ising import IsingModel, qubo_to_ising, spins_to_bits
from .embedding import Embedding, find_embedding
from .noise import ICENoiseModel, NoiselessModel
from .sampler import AnnealSchedule, SimulatedAnnealingSampler
from .timing import AnnealTimingModel
from .topology import chimera_graph, pegasus_graph, random_disabled_qubits

if TYPE_CHECKING:  # pragma: no cover
    from ..core.env import Env


def _advantage41_graph(rng: np.random.Generator) -> nx.Graph:
    """Pegasus P16 with 1% of its qubits disabled by ``rng``."""
    return random_disabled_qubits(pegasus_graph(16), 0.01, rng)


def _dwave2000q_graph(rng: np.random.Generator) -> nx.Graph:
    """Chimera C16 with 2% of its qubits disabled by ``rng``."""
    return random_disabled_qubits(chimera_graph(16), 0.02, rng)


#: Seeded working graphs, built once per process by :func:`_working_graph`.
_SHARED_GRAPHS: dict[tuple[Callable, int], nx.Graph] = {}
_SHARED_GRAPHS_LOCK = threading.Lock()


def _working_graph(
    build: Callable[[np.random.Generator], nx.Graph],
    rng: np.random.Generator | None,
    seed: int,
) -> nx.Graph:
    """``build(rng)``, or without ``rng`` the shared ``build(default_rng(seed))``.

    The seeded graph is a fixed property of the machine it stands in
    for, so the process builds it once, under a lock that makes
    concurrent first callers wait for one build, and freezes it: no
    caller can mutate the graph every other profile shares, and the
    router can memoize its layout (:mod:`repro.annealing.embedding`).
    """
    if rng is not None:
        return build(rng)
    with _SHARED_GRAPHS_LOCK:
        graph = _SHARED_GRAPHS.get((build, seed))
        if graph is None:
            graph = nx.freeze(build(np.random.default_rng(seed)))
            _SHARED_GRAPHS[build, seed] = graph
        return graph


@dataclass
class AnnealingDeviceProfile:
    """Hardware profile: topology + noise + timing."""

    name: str
    topology: nx.Graph
    noise: ICENoiseModel | NoiselessModel
    timing: AnnealTimingModel
    default_num_reads: int = 100

    @classmethod
    def advantage41(
        cls,
        rng: np.random.Generator | None = None,
        noiseless: bool = False,
    ) -> "AnnealingDeviceProfile":
        """A profile mimicking the paper's Advantage 4.1 system.

        Pegasus P16 with ~1% of qubits disabled for yield; ICE noise at
        published Advantage magnitudes; Section VIII-C timing constants.
        ``rng`` picks the disabled qubits of a freshly built graph; without
        it every profile shares one frozen graph, disabled by
        ``default_rng(41)`` and built once per process.
        """
        return cls(
            name="advantage-4.1-sim",
            topology=_working_graph(_advantage41_graph, rng, 41),
            noise=NoiselessModel() if noiseless else ICENoiseModel(),
            timing=AnnealTimingModel(),
        )

    @classmethod
    def dwave2000q(
        cls,
        rng: np.random.Generator | None = None,
        noiseless: bool = False,
    ) -> "AnnealingDeviceProfile":
        """A profile mimicking the previous-generation D-Wave 2000Q.

        Chimera C16 (2048 qubits, degree ≤ 6) with ~2% yield loss and
        stronger ICE noise, per published cross-generation comparisons.
        Useful for the Pegasus-vs-Chimera ablation: the sparser topology
        forces longer chains for the same problems.  As for
        :meth:`advantage41`, ``rng`` builds a fresh graph; without it the
        profile shares one frozen graph, disabled by ``default_rng(2000)``.
        """
        topo = _working_graph(_dwave2000q_graph, rng, 2000)
        noise = (
            NoiselessModel()
            if noiseless
            else ICENoiseModel(h_offset_sigma=0.03, j_offset_sigma=0.02, h_range=2.0)
        )
        return cls(
            name="dwave-2000q-sim",
            topology=topo,
            noise=noise,
            timing=AnnealTimingModel(programming_time=10e-3),
        )

    @classmethod
    def small_test(cls, m: int = 4, noiseless: bool = True) -> "AnnealingDeviceProfile":
        """A small Pegasus profile for fast unit tests."""
        return cls(
            name=f"pegasus-p{m}-test",
            topology=pegasus_graph(m),
            noise=NoiselessModel() if noiseless else ICENoiseModel(),
            timing=AnnealTimingModel(),
        )

    @property
    def num_qubits(self) -> int:
        """Physical qubit count of the topology."""
        return self.topology.number_of_nodes()


class AnnealingDevice:
    """Backend executing NchooseK programs on a simulated annealer."""

    #: Runtime-backend hook (see :mod:`repro.runtime.backends`): sampling
    #: is stochastic, so the portfolio may retry infeasible jobs with a
    #: fresh seed-derived RNG stream.
    deterministic = False

    def __init__(
        self,
        profile: AnnealingDeviceProfile | None = None,
        schedule: AnnealSchedule | None = None,
        chain_strength: float | None = None,
        postprocess_sweeps: int = 2,
        num_spin_reversal_transforms: int = 0,
    ) -> None:
        """Configure the device.

        Parameters
        ----------
        profile:
            Hardware profile (topology + noise + timing); defaults to the
            Advantage-4.1 stand-in.
        schedule:
            Anneal schedule override (inverse-temperature ramp + sweeps);
            defaults to the sampler's standard schedule.
        chain_strength:
            Ferromagnetic chain coupling; ``None`` uses the
            uniform-torque-compensation heuristic per job.
        postprocess_sweeps:
            Single-flip descent sweeps on unembedded samples, mirroring
            Ocean's optional classical post-processing (0 = off).
        num_spin_reversal_transforms:
            Gauge re-programmings the reads are split across, Ocean's
            mitigation for additive ICE bias (0 = off).
        """
        self.profile = profile or AnnealingDeviceProfile.advantage41()
        self.sampler = SimulatedAnnealingSampler(schedule)
        self._custom_schedule = schedule is not None
        self.chain_strength = chain_strength
        # D-Wave's stack offers optional classical post-processing; a few
        # single-flip sweeps on the unembedded samples mirror it (0 = off).
        self.postprocess_sweeps = postprocess_sweeps
        # Spin-reversal transforms (Ocean's gauge averaging): reads are
        # split across randomly gauged re-programmings, decorrelating the
        # additive ICE offsets from the problem (0 = off).
        self.num_spin_reversal_transforms = num_spin_reversal_transforms

    @property
    def name(self) -> str:
        """The profile's device name (stamped on returned solutions)."""
        return self.profile.name

    # ------------------------------------------------------------------
    def solve(self, env: "Env", **kwargs) -> Solution:
        """Best-of-``num_reads`` solution for ``env``."""
        return self.sample(env, **kwargs).best

    def sample(
        self,
        env: "Env",
        num_reads: int | None = None,
        rng: np.random.Generator | None = None,
        program: CompiledProgram | None = None,
        embedding: Embedding | None = None,
        **compile_kwargs,
    ) -> SampleSet:
        """Run one job (``num_reads`` samples) for ``env``'s program.

        ``rng`` makes the run reproducible; ``num_reads`` defaults to the
        profile's job size.  A precompiled ``program`` and/or ``embedding``
        may be supplied to reuse work across repeated jobs on the same
        problem (as the scaling studies do); remaining keyword arguments
        flow to :meth:`Env.to_qubo` when compiling here.
        """
        rng = rng or np.random.default_rng()
        num_reads = num_reads or self.profile.default_num_reads
        with telemetry.span(
            "anneal.job", device=self.name, num_reads=num_reads
        ) as tspan:
            return self._sample(
                env, num_reads, rng, program, embedding, tspan, compile_kwargs
            )

    def _sample(
        self,
        env: "Env",
        num_reads: int,
        rng: np.random.Generator,
        program: CompiledProgram | None,
        embedding: Embedding | None,
        tspan,
        compile_kwargs: dict,
    ) -> SampleSet:
        """The job pipeline behind :meth:`sample` (runs inside its span)."""
        if program is None:
            program = env.to_qubo(**compile_kwargs)
        logical = qubo_to_ising(program.qubo)

        if embedding is None:
            embedding = self.embed(program, rng=rng)

        physical = self._embedded_model(logical, embedding)
        order = tuple(physical.variables)

        # Reads are split across spin-reversal transforms (gauges): each
        # gauge re-programs h' = g·h, J' = g·g·J, anneals its share of the
        # reads, and un-gauges the spins — Ocean's mitigation for additive
        # ICE bias.  Zero transforms means one un-gauged programming.
        transforms = max(1, self.num_spin_reversal_transforms)
        reads_per = -(-num_reads // transforms)  # ceil division
        spin_blocks = []
        for t in range(transforms):
            if self.num_spin_reversal_transforms > 0:
                gauge = rng.choice(np.array([-1.0, 1.0]), size=len(order))
            else:
                gauge = np.ones(len(order))
            gauged = _apply_gauge(physical, order, gauge)
            programmed = self.profile.noise.apply(gauged, rng)

            # Anneal schedule relative to the programmed coefficient
            # scale: physical devices read out effectively cold (thermal
            # energy well below the programmed gaps), so the final
            # inverse temperature is pinned far above the largest
            # coefficient.  Without this, models rescaled into the analog
            # range would be sampled hot and even tiny problems would
            # show spurious excited-state reads.  A schedule passed to
            # the constructor overrides the adaptation.
            if self._custom_schedule:
                schedule = self.sampler.schedule
            else:
                scale = max(programmed.max_abs_coefficient(), 1e-12)
                schedule = AnnealSchedule(
                    beta_min=0.05 / scale,
                    beta_max=10.0 / scale,
                    num_sweeps=max(self.sampler.schedule.num_sweeps, 512),
                )

            result = self.sampler.sample(
                programmed,
                num_reads=reads_per,
                rng=rng,
                variables=order,
                schedule=schedule,
            )
            spin_blocks.append(result.spins * gauge.astype(np.int8))
        all_spins = np.vstack(spin_blocks)[:num_reads]

        sample_set = self._unembed(env, program, embedding, all_spins, order, num_reads)
        tspan.set(
            physical_qubits=embedding.num_physical_qubits,
            broken_chains=sample_set.metadata["broken_chains"],
            logical_variables=sample_set.metadata["logical_variables"],
        )
        return sample_set

    def _unembed(
        self,
        env: "Env",
        program: CompiledProgram,
        embedding: Embedding,
        all_spins: np.ndarray,
        order: tuple[str, ...],
        num_reads: int,
    ) -> SampleSet:
        """Majority-vote unembedding + post-processing into a SampleSet.

        The tail of :meth:`sample`: resolve each chain by majority
        vote, optionally run greedy descent, and re-evaluate energies
        against the noiseless logical model.
        """
        col = {q: i for i, q in enumerate(order)}
        logical_vars = tuple(program.qubo.variables)
        chain_cols = {
            v: np.array([col[f"q{q}"] for q in embedding.chains[v]])
            for v in logical_vars
        }
        bits = spins_to_bits(all_spins)
        broken = 0
        logical_bits = np.empty((num_reads, len(logical_vars)), dtype=np.int8)
        for j, v in enumerate(logical_vars):
            cols = chain_cols[v]
            votes = bits[:, cols].mean(axis=1)
            broken += int(((votes > 1e-9) & (votes < 1 - 1e-9)).sum())
            # Ties resolve to 1 (rare for odd chains; unbiased enough).
            logical_bits[:, j] = (votes >= 0.5).astype(np.int8)

        if self.postprocess_sweeps > 0 and logical_vars:
            from ..classical.qubo_solver import greedy_descent

            logical_bits = greedy_descent(
                program.qubo,
                logical_bits,
                order=logical_vars,
                max_sweeps=self.postprocess_sweeps,
            )

        energies = program.qubo.energies(logical_bits, logical_vars)

        solutions = _solutions(env, program, logical_vars, logical_bits, energies, self.name)
        telemetry.count("anneal.jobs")
        telemetry.count("anneal.broken_chains", broken)
        telemetry.gauge("anneal.physical_qubits", embedding.num_physical_qubits)
        return SampleSet(
            solutions=solutions,
            backend=self.name,
            timing=self.profile.timing.breakdown(num_reads),
            metadata={
                "physical_qubits": embedding.num_physical_qubits,
                "max_chain_length": embedding.max_chain_length,
                "broken_chains": broken,
                "logical_variables": len(logical_vars),
            },
        )

    # ------------------------------------------------------------------
    def embed(
        self, program: CompiledProgram, rng: np.random.Generator | None = None
    ) -> Embedding:
        """Minor-embed the program's QUBO interaction graph."""
        g = nx.Graph()
        g.add_nodes_from(program.qubo.variables)
        g.add_edges_from(program.qubo.quadratic.keys())
        return find_embedding(g, self.profile.topology, rng=rng)

    def _embedded_model(self, logical: IsingModel, embedding: Embedding) -> IsingModel:
        """Spread logical fields over chains and add chain couplers.

        Physical spins are named ``"q<qubit>"``.  The logical field
        ``h_v`` is divided evenly across the chain of ``v``; each logical
        coupler is realized on one physical coupler between the chains;
        chain edges get ``-chain_strength`` (ferromagnetic).

        Chain strength defaults to the scale of the logical model's
        largest coefficient: strong enough that broken chains are rare,
        weak enough not to crowd the problem out of the analog range or
        freeze the anneal (over-strong chains visibly depress ground-state
        rates; see the embedding ablation bench).
        """
        strength = self.chain_strength
        if strength is None:
            strength = max(logical.max_abs_coefficient(), 1.0)

        topo = self.profile.topology
        h: dict[str, float] = {}
        J: dict[tuple[str, str], float] = {}

        def pname(q: int) -> str:
            return f"q{q}"

        for v, chain in embedding.chains.items():
            hv = logical.h.get(v, 0.0)
            share = hv / len(chain)
            for q in chain:
                h[pname(q)] = h.get(pname(q), 0.0) + share

        for v, chain in embedding.chains.items():
            sub = topo.subgraph(chain)
            # Couple along a spanning tree: enough to bind the chain.
            for a, b in nx.minimum_spanning_edges(sub, data=False):
                key = (pname(a), pname(b)) if pname(a) < pname(b) else (pname(b), pname(a))
                J[key] = J.get(key, 0.0) - strength

        for (u, v), j in logical.J.items():
            placed = False
            for a in embedding.chains[u]:
                for b in embedding.chains[v]:
                    if topo.has_edge(a, b):
                        key = (pname(a), pname(b)) if pname(a) < pname(b) else (pname(b), pname(a))
                        J[key] = J.get(key, 0.0) + j
                        placed = True
                        break
                if placed:
                    break
            if not placed:  # pragma: no cover - validate() prevents this
                raise RuntimeError(f"embedding lost coupler ({u}, {v})")

        # Ensure every chain qubit appears as a variable even with h = 0.
        for v, chain in embedding.chains.items():
            for q in chain:
                h.setdefault(pname(q), 0.0)

        return IsingModel(h=h, J=J, offset=logical.offset)


def _solutions(
    env: "Env",
    program: CompiledProgram,
    logical_vars: tuple[str, ...],
    logical_bits: np.ndarray,
    energies: np.ndarray,
    backend: str,
) -> list[Solution]:
    """One :class:`Solution` per row of ``logical_bits``, in row order.

    Each equals ``Solution.from_assignment`` of the row's
    ``program.strip_ancillas`` assignment, but all rows are scored at
    once: one (constraints × variables) multiplicity matrix gives every
    read's TRUE-count per constraint in one product, and a table of each
    constraint's selection set turns the counts into verdicts.
    """
    names = program.variables
    logical_col = {v: j for j, v in enumerate(logical_vars)}
    bits = logical_bits[:, [logical_col[v] for v in names]].astype(np.int64)
    col = {v: j for j, v in enumerate(names)}
    constraints = env.constraints
    multiplicity = np.zeros((len(constraints), len(names)), dtype=np.int64)
    offsets = np.zeros(len(constraints), dtype=np.int64)
    table: list[bool] = []
    for i, c in enumerate(constraints):
        for v, m in c.collection.counts.items():
            multiplicity[i, col[v.name]] = m
        offsets[i] = len(table)
        table.extend(t in c.selection for t in range(c.collection.cardinality + 1))
    satisfied = np.array(table, dtype=bool)[bits @ multiplicity.T + offsets]
    soft = np.array([c.soft for c in constraints], dtype=bool)
    hard_total, soft_total = len(env.hard_constraints), len(env.soft_constraints)
    return [
        Solution(
            assignment=dict(zip(names, row)),
            energy=energy,
            hard_satisfied=hard_sat,
            soft_satisfied=soft_sat,
            hard_total=hard_total,
            soft_total=soft_total,
            backend=backend,
        )
        for row, energy, hard_sat, soft_sat in zip(
            bits.astype(bool).tolist(),
            energies.tolist(),
            satisfied[:, ~soft].sum(axis=1).tolist(),
            satisfied[:, soft].sum(axis=1).tolist(),
        )
    ]


def _apply_gauge(
    model: IsingModel, order: tuple[str, ...], gauge: "np.ndarray"
) -> IsingModel:
    """Spin-reversal transform: h' = g·h, J'_{uv} = g_u g_v J_{uv}.

    The transformed model's energy landscape is the original's with spins
    relabeled s → g·s, so un-gauging samples recovers the original
    problem exactly — while analog programming errors land on different
    effective signs each gauge.
    """
    g = {v: float(gauge[i]) for i, v in enumerate(order)}
    return IsingModel(
        h={v: g[v] * hv for v, hv in model.h.items()},
        J={(u, v): g[u] * g[v] * jv for (u, v), jv in model.J.items()},
        offset=model.offset,
    )
