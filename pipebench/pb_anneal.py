"""anneal-sweep: the reduced Figure 7 sweep on the Advantage-4.1 stand-in.

Each point runs the artifact path of ``fig7.run_point``: build_env →
to_qubo → max_soft_satisfiable → AnnealingDevice.embed →
AnnealingDevice.sample (100 reads, embedding passed in) → Definition 8
labels.  Embedding takes most of the time here, so this is the workload
on which a faster embedder must show.

Random streams.  Sampling streams are spawned from the workload seed,
one per point.  Embedding streams are spawned from the Figure 7
artifact's own default seed instead, one per point, and do not change
with the workload seed.  Which instances make the router thrash depends
on the stream: over streams spawned from seeds 0–6 the embedding total
of one pass ranged from 8 s to 48 s, a spread no bound below 25% could
hold.  With the artifact's streams, every run embeds the same graphs
the same way, thrash included, and the seed still moves the samples.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np

from pb_common import Outcome, median, percentile
from pb_trace import Tracer

#: Fig7Config's num_reads.
NUM_READS = 100
#: Nominal wall time of one pass on a 2-core x86 box at one BLAS thread.
PASS_SECONDS = 25.0
#: The annealing schedule floor AnnealingDevice applies when no schedule
#: is passed to it (sweeps per read); used only for the spin-update count.
SWEEP_FLOOR = 512


def study_points():
    """The reduced ``python -m repro fig7`` set minus clique-cover at 21 vertices.

    Clique-cover at 21 vertices (147 variables) embedded for over six
    minutes without finishing; it is left out for run length only.
    """
    from repro.experiments.scaling import cover_study, edge_study, sat_study, vertex_study

    points = (
        vertex_study(triangles=(3, 5, 7))
        + edge_study(edges=(18, 31, 48, 63))
        + cover_study(sizes=((4, 4), (8, 8), (12, 12)))
        + sat_study(sizes=((5, 8), (8, 14)))
    )
    return [p for p in points if not (p.problem == "clique-cover" and p.label == "21v")]


def passes_for(seconds: float) -> int:
    """Whole passes over the point set that fit ``seconds``."""
    return max(1, round(seconds / PASS_SECONDS))


def interaction_graph(program) -> nx.Graph:
    """The logical graph AnnealingDevice.embed minor-embeds."""
    g = nx.Graph()
    g.add_nodes_from(program.qubo.variables)
    g.add_edges_from(program.qubo.quadratic.keys())
    return g


def check_embedding(program, embedding, topology) -> str | None:
    """Re-run Embedding.validate against the device topology."""
    from repro.annealing.embedding import EmbeddingError

    try:
        embedding.validate(interaction_graph(program), topology)
    except EmbeddingError as exc:
        return f"invalid embedding: {exc}"
    return None


def run_point(device, point, embed_rng, sample_rng, tracer: Tracer, op: str):
    """One Figure 7 point; returns a dict, or None if fig7 would skip it.

    With ``embed_rng is sample_rng`` the calls and their stream use are
    exactly those of ``fig7.run_point``.
    """
    from repro.experiments.fig7 import Fig7Config
    from repro.experiments.ground_truth import max_soft_satisfiable

    with tracer.span("problems.build_env"):
        env = point.instance.build_env()
    with tracer.span("compile"):
        program = env.to_qubo()
    if program.qubo.num_variables > Fig7Config.max_logical_variables:
        return None
    with tracer.span("classical"):
        truth = max_soft_satisfiable(point.instance, env)
    t0 = time.perf_counter()
    with tracer.span("annealing.embed"):
        embedding = device.embed(program, rng=embed_rng)
    embed_s = time.perf_counter() - t0
    with tracer.span("annealing.sample"):
        samples = device.sample(
            env, num_reads=NUM_READS, rng=sample_rng, program=program, embedding=embedding
        )
    with tracer.span("experiments.label"):
        labels = [sol.quality(truth) for sol in samples]
    return {
        "op": op,
        "point": point,
        "env": env,
        "program": program,
        "truth": truth,
        "embedding": embedding,
        "embed_s": embed_s,
        "samples": samples,
        "labels": labels,
    }


def tally(result) -> dict:
    """The QualityTally fields of one point result."""
    from repro.core.solution import SolutionQuality

    counts = {q: 0 for q in SolutionQuality}
    for label in result["labels"]:
        counts[label] += 1
    return {
        "problem": result["point"].problem,
        "label": result["point"].label,
        "logical_variables": result["program"].qubo.num_variables,
        "physical_qubits": result["embedding"].num_physical_qubits,
        "constraints": result["env"].num_constraints,
        "optimal": counts[SolutionQuality.OPTIMAL],
        "suboptimal": counts[SolutionQuality.SUBOPTIMAL],
        "incorrect": counts[SolutionQuality.INCORRECT],
    }


def fig7_shape(tallies: list[dict]) -> str | None:
    """EXPERIMENTS.md Figure 7 claim: min-set-cover ranks low on % optimal
    and high on % correct.  Problems are ranked by pooled reads; "low"
    means below the median problem, "high" at or above it (several
    problems tie at 100% correct)."""
    pooled: dict[str, list[int]] = {}
    for t in tallies:
        acc = pooled.setdefault(t["problem"], [0, 0, 0])
        acc[0] += t["optimal"]
        acc[1] += t["optimal"] + t["suboptimal"]
        acc[2] += t["optimal"] + t["suboptimal"] + t["incorrect"]
    if "min-set-cover" not in pooled or len(pooled) < 3:
        return None
    opt = {p: a[0] / a[2] for p, a in pooled.items()}
    cor = {p: a[1] / a[2] for p, a in pooled.items()}
    if not opt["min-set-cover"] < median(opt.values()):
        return f"min-set-cover % optimal {100 * opt['min-set-cover']:.1f} is not below the median problem"
    if not cor["min-set-cover"] >= median(cor.values()):
        return f"min-set-cover % correct {100 * cor['min-set-cover']:.1f} is below the median problem"
    return None


class AnnealSweep:
    """The anneal-sweep workload."""

    name = "anneal-sweep"

    def __init__(self, seed: int, seconds: float, points=None, passes: int | None = None,
                 strict: bool = True) -> None:
        """Plan the run: ``points`` and ``passes`` default to the full sweep."""
        self.seed = seed
        self.points = study_points() if points is None else list(points)
        self.passes = passes_for(seconds) if passes is None else passes
        self.strict = strict

    def setup(self) -> None:
        """Build the device and warm every layer on a point outside the sweep."""
        from repro.annealing.device import AnnealingDevice, AnnealingDeviceProfile
        from repro.experiments.fig7 import Fig7Config
        from repro.experiments.scaling import StudyPoint
        from repro.problems import MinVertexCover, vertex_scaling_graph

        t1 = time.perf_counter()
        profile = AnnealingDeviceProfile.advantage41()
        t2 = time.perf_counter()
        self.topology_s = t2 - t1
        self.device = AnnealingDevice(profile)
        warm = StudyPoint("min-vertex-cover", "6v", MinVertexCover(vertex_scaling_graph(2)))
        rng = np.random.default_rng(0)
        run_point(self.device, warm, rng, rng, Tracer(False), "warm-up")
        self.setup_parts = {"device_s": t2 - t1,
                            "warmup_s": time.perf_counter() - t2}
        root = np.random.SeedSequence(Fig7Config.seed)
        self.embed_seqs = [s.spawn(len(self.points)) for s in root.spawn(self.passes)]
        self.sample_seqs = [
            s.spawn(len(self.points)) for s in np.random.SeedSequence(self.seed).spawn(self.passes)
        ]

    def run(self, tracer: Tracer, outcome: Outcome) -> None:
        """The measured passes, then the output checks (outside ``run_s``)."""
        from repro.annealing.embedding import EmbeddingError

        results = []
        with tracer.span("workload") as root:
            t0 = time.perf_counter()
            for p in range(self.passes):
                for i, point in enumerate(self.points):
                    op = f"{point.problem} {point.label} (pass {p})"
                    outcome.attempted += 1
                    try:
                        with tracer.span("point", op=op):
                            res = run_point(
                                self.device, point,
                                np.random.default_rng(self.embed_seqs[p][i]),
                                np.random.default_rng(self.sample_seqs[p][i]),
                                tracer, op,
                            )
                    except EmbeddingError as exc:
                        outcome.fail(op, f"embedding failed: {exc}")
                        continue
                    except Exception as exc:  # a failed operation, named below
                        outcome.fail(op, f"{type(exc).__name__}: {exc}")
                        continue
                    if res is None:
                        outcome.attempted -= 1
                        continue
                    results.append(res)
            outcome.run_s = time.perf_counter() - t0
        self.root = root
        self._check(results, outcome)
        self._metrics(results, outcome)

    def _check(self, results, outcome: Outcome) -> None:
        from repro.core.solution import SolutionQuality

        topology = self.device.profile.topology
        for res in results:
            bad = check_embedding(res["program"], res["embedding"], topology)
            if bad is None:
                for sol, label in zip(res["samples"], res["labels"]):
                    ref = SolutionQuality.classify(res["env"], sol.assignment, res["truth"])
                    if ref is not label:
                        bad = f"label {label.value} but Definition 8 gives {ref.value}"
                        break
            if bad:
                outcome.fail(res["op"], bad, wrong=True)
        shape = fig7_shape([tally(r) for r in results])
        if shape:
            for res in results:
                if res["point"].problem == "min-set-cover":
                    outcome.fail(res["op"], f"Figure 7 shape: {shape}", wrong=True)

    def _metrics(self, results, outcome: Outcome) -> None:
        tallies = [tally(r) for r in results]
        reads = sum(t["optimal"] + t["suboptimal"] + t["incorrect"] for t in tallies)
        optimal = sum(t["optimal"] for t in tallies)
        correct = sum(t["optimal"] + t["suboptimal"] for t in tallies)
        outcome.e2e.update({
            "pct_optimal": (100.0 * optimal / reads if reads else 0.0, "%"),
            "pct_correct": (100.0 * correct / reads if reads else 0.0, "%"),
        })
        embeds = [r["embed_s"] for r in results]
        failed_embeds = sum(1 for f in outcome.failures if "embedding failed" in f)
        attempts = len(results) + failed_embeds
        broken = sum(r["samples"].metadata["broken_chains"] for r in results)
        logical_reads = sum(
            NUM_READS * r["samples"].metadata["logical_variables"] for r in results
        )
        sweeps = max(self.device.sampler.schedule.num_sweeps, SWEEP_FLOOR)
        outcome.layers.update({
            "annealing.embed.calls": (float(attempts), "count"),
            "annealing.embed.p50_s": (percentile(embeds, 0.5, strict=self.strict), "s"),
            "annealing.embed.max_s": (max(embeds, default=0.0), "s"),
            "annealing.embed.fail_frac": (failed_embeds / attempts if attempts else 0.0, "fraction"),
            "annealing.embed.qubits": (float(sum(t["physical_qubits"] for t in tallies)), "qubits"),
            "annealing.embed.max_chain": (
                float(max((r["embedding"].max_chain_length for r in results), default=0)), "qubits"
            ),
            "annealing.sample.calls": (float(len(results)), "count"),
            "annealing.sample.spin_updates": (
                float(sum(NUM_READS * sweeps * t["physical_qubits"] for t in tallies)), "count"
            ),
            "annealing.sample.broken_frac": (broken / logical_reads if logical_reads else 0.0, "fraction"),
            "annealing.topology.busy_s": (self.topology_s, "s"),
            "compile.calls": (float(len(results)), "count"),
            "compile.qubo_vars": (float(sum(r["program"].qubo.num_variables for r in results)), "count"),
            "compile.qubo_terms": (float(sum(r["program"].qubo.num_terms() for r in results)), "count"),
            "classical.calls": (float(len(results)), "count"),
        })
        slow = max(results, key=lambda r: r["embed_s"], default=None)
        if slow is not None:
            outcome.notes.append(
                f"slowest embedding: {slow['op']} {slow['embed_s']:.3f} s "
                f"({slow['program'].qubo.num_variables} variables, "
                f"{slow['embedding'].num_physical_qubits} qubits)"
            )
        outcome.record["points"] = [
            dict(tally(r), op=r["op"], embed_s=round(r["embed_s"], 4)) for r in results
        ]
        for row in outcome.record["points"]:
            outcome.notes.append(
                f"point {row['op']}: {row['logical_variables']} variables, "
                f"{row['physical_qubits']} qubits, embed {row['embed_s']:.3f} s, "
                f"optimal/suboptimal/incorrect {row['optimal']}/{row['suboptimal']}/{row['incorrect']}"
            )

    busy_layers = (
        "annealing.embed", "annealing.sample", "compile", "classical",
        "problems.build_env", "experiments.label",
    )
    unobserved = ("circuit.", "runtime.", "service.")
