"""qaoa-sweep: the Figures 8–10 record set on the ibmq_brooklyn stand-in.

Each point runs the artifact path of ``fig8_10.run_point``: build_env →
to_qubo → max_soft_satisfiable → CircuitDevice.sample → Definition 8
label of the single result.  Embedding never runs here, so an embedding
change should leave this workload alone; the exact statevector QAOA loop
dominates instead, and the transpiled depth feeds Figures 9 and 10.

The ``fig8_10.run`` default set has 34 points; the two whose QUBO
exceeds the device's 65 qubits are skipped by design and not counted.
The set repeats over fresh streams (spawned from the workload seed, one
per pass and point) as many times as the run length needs.
"""

from __future__ import annotations

import time

import numpy as np

from pb_common import Outcome
from pb_trace import Tracer

#: Nominal wall time of one pass on a 2-core x86 box at one BLAS thread.
PASS_SECONDS = 4.0


def study_points():
    """The ``fig8_10.run`` default point set (edge study included)."""
    from repro.experiments.scaling import cover_study, edge_study, sat_study, vertex_study

    return (
        vertex_study(triangles=(2, 3, 4, 5, 7))
        + cover_study(sizes=((4, 4), (6, 6), (8, 8), (10, 10)))
        + sat_study(sizes=((4, 6), (6, 10), (8, 14)))
        + edge_study(edges=(18, 24, 31))
    )


def passes_for(seconds: float) -> int:
    """Whole passes over the point set that fit ``seconds``."""
    return max(1, round(seconds / PASS_SECONDS))


def run_point(device, point, rng, tracer: Tracer, op: str):
    """One Figures 8–10 point; returns a dict, or None if it does not fit.

    The calls and their stream use are exactly those of
    ``fig8_10.run_point``.  When tracing, the transpile that
    CircuitDevice.sample runs inside itself is timed by one extra,
    identical call to ``transpile_qaoa`` (transpilation is deterministic).
    """
    from repro.experiments.ground_truth import max_soft_satisfiable
    from repro.qubo.ising import qubo_to_ising

    with tracer.span("problems.build_env"):
        env = point.instance.build_env()
    with tracer.span("compile"):
        program = env.to_qubo()
    if program.qubo.num_variables > device.profile.num_qubits:
        return None
    with tracer.span("classical"):
        truth = max_soft_satisfiable(point.instance, env)
    traced_depth = None
    if tracer.enabled:
        with tracer.span("circuit.transpile"):
            traced = device.transpile_qaoa(
                qubo_to_ising(program.qubo), tuple(program.qubo.variables)
            )
        traced_depth = traced.depth
    t0 = time.perf_counter()
    with tracer.span("circuit.job"):
        samples = device.sample(env, rng=rng, program=program)
    job_s = time.perf_counter() - t0
    with tracer.span("experiments.label"):
        quality = samples.best.quality(truth)
    return {
        "op": op,
        "point": point,
        "env": env,
        "program": program,
        "truth": truth,
        "samples": samples,
        "quality": quality,
        "job_s": job_s,
        "traced_depth": traced_depth,
        "metrics": {
            "problem": point.problem,
            "label": point.label,
            "logical_variables": samples.metadata["logical_qubits"],
            "qubits_used": samples.metadata["qubits_used"],
            "depth": samples.metadata["depth"],
            "constraints": env.num_constraints,
            "quality": quality.value,
        },
    }


def fig10_shape(metrics: list[dict]) -> dict[str, str]:
    """EXPERIMENTS.md Figure 10 claim: depth tracks constraint count
    within each problem.  Returns ``{problem: reason}`` for every problem
    whose constraint↔depth correlation is not positive."""
    by_problem: dict[str, list[dict]] = {}
    for m in metrics:
        by_problem.setdefault(m["problem"], []).append(m)
    broken = {}
    for problem, ms in by_problem.items():
        cs = np.array([m["constraints"] for m in ms], dtype=float)
        ds = np.array([m["depth"] for m in ms], dtype=float)
        if len(ms) < 2 or cs.std() == 0 or ds.std() == 0:
            continue
        r = float(np.corrcoef(cs, ds)[0, 1])
        if not r > 0:
            broken[problem] = f"constraint-depth correlation {r:.2f} is not positive"
    return broken


class QaoaSweep:
    """The qaoa-sweep workload."""

    name = "qaoa-sweep"

    def __init__(self, seed: int, seconds: float, points=None, passes: int | None = None,
                 strict: bool = True) -> None:
        """Plan the run: ``points`` and ``passes`` default to the full set."""
        self.seed = seed
        self.points = study_points() if points is None else list(points)
        self.passes = passes_for(seconds) if passes is None else passes
        self.strict = strict

    def setup(self) -> None:
        """Build the device and warm every layer on a point outside the set."""
        from repro.circuit.device import CircuitDevice, CircuitDeviceProfile
        from repro.experiments.scaling import StudyPoint
        from repro.problems import MaxCut, vertex_scaling_graph

        t1 = time.perf_counter()
        self.device = CircuitDevice(CircuitDeviceProfile.brooklyn())
        t2 = time.perf_counter()
        warm = StudyPoint("max-cut", "3v", MaxCut(vertex_scaling_graph(1)))
        run_point(self.device, warm, np.random.default_rng(0), Tracer(False), "warm-up")
        self.setup_parts = {"device_s": t2 - t1,
                            "warmup_s": time.perf_counter() - t2}
        self.seqs = [
            s.spawn(len(self.points)) for s in np.random.SeedSequence(self.seed).spawn(self.passes)
        ]

    def run(self, tracer: Tracer, outcome: Outcome) -> None:
        """The measured passes, then the output checks (outside ``run_s``)."""
        results = []
        pass_s = []
        with tracer.span("workload") as root:
            for p in range(self.passes):
                t0 = time.perf_counter()
                for i, point in enumerate(self.points):
                    op = f"{point.problem} {point.label} (pass {p})"
                    outcome.attempted += 1
                    try:
                        with tracer.span("point", op=op):
                            res = run_point(
                                self.device, point,
                                np.random.default_rng(self.seqs[p][i]), tracer, op,
                            )
                    except Exception as exc:  # a failed operation, named below
                        outcome.fail(op, f"{type(exc).__name__}: {exc}")
                        continue
                    if res is None:
                        outcome.attempted -= 1
                        continue
                    res["pass"] = p
                    results.append(res)
                pass_s.append(time.perf_counter() - t0)
        # The sum, not passes x median pass: passes differ in work (each has
        # fresh streams), and in two sets of ten seeds passes x median spread
        # by 0.19 and 0.25 where the sum spread by 0.14 and 0.19.
        outcome.run_s = sum(pass_s)
        outcome.notes.append("pass wall times: " + ", ".join(f"{t:.3f}" for t in pass_s))
        self.root = root
        self._check(results, outcome)
        self._metrics(results, outcome)

    def _check(self, results, outcome: Outcome) -> None:
        from repro.core.solution import SolutionQuality

        for res in results:
            sol = res["samples"].best
            ref = SolutionQuality.classify(res["env"], sol.assignment, res["truth"])
            if ref is not res["quality"]:
                outcome.fail(res["op"], f"label {res['quality'].value} but Definition 8 "
                             f"gives {ref.value}", wrong=True)
            if res["traced_depth"] is not None and res["traced_depth"] != res["metrics"]["depth"]:
                outcome.fail(res["op"], "separately timed transpile disagrees on depth", wrong=True)
        first = [r["metrics"] for r in results if r["pass"] == 0]
        broken = fig10_shape(first)
        for res in results:
            if res["point"].problem in broken:
                outcome.fail(res["op"], f"Figure 10 shape: {broken[res['point'].problem]}",
                             wrong=True)

    def _metrics(self, results, outcome: Outcome) -> None:
        n = len(results)
        optimal = sum(1 for r in results if r["quality"].value == "optimal")
        correct = sum(1 for r in results if r["quality"].value != "incorrect")
        outcome.e2e.update({
            "pct_optimal": (100.0 * optimal / n if n else 0.0, "%"),
            "pct_correct": (100.0 * correct / n if n else 0.0, "%"),
        })
        exact = [r for r in results if r["samples"].metadata["execution_model"] == "exact"]
        structural = [r for r in results if r["samples"].metadata["execution_model"] != "exact"]
        outcome.layers.update({
            "circuit.transpile.calls": (float(n), "count"),
            "circuit.transpile.swaps": (
                float(sum(r["samples"].metadata["num_swaps"] for r in results)), "count"
            ),
            "circuit.transpile.depth": (
                float(sum(r["metrics"]["depth"] for r in results)), "layers"
            ),
            "circuit.transpile.qubits": (
                float(sum(r["metrics"]["qubits_used"] for r in results)), "qubits"
            ),
            "circuit.job.calls": (float(n), "count"),
            "circuit.job.exact_calls": (float(len(exact)), "count"),
            "circuit.job.exact_busy_s": (sum(r["job_s"] for r in exact), "s"),
            "circuit.job.structural_busy_s": (sum(r["job_s"] for r in structural), "s"),
            "compile.calls": (float(n), "count"),
            "compile.qubo_vars": (float(sum(r["program"].qubo.num_variables for r in results)), "count"),
            "compile.qubo_terms": (float(sum(r["program"].qubo.num_terms() for r in results)), "count"),
            "classical.calls": (float(n), "count"),
        })
        outcome.notes.append(
            "split: circuit.job encloses one transpile of its circuit; circuit.transpile "
            "is an extra identical call to CircuitDevice.transpile_qaoa, so the job's "
            "own QAOA time is about circuit.job.busy_s - circuit.transpile.busy_s"
        )

    busy_layers = (
        "circuit.transpile", "circuit.job", "compile", "classical",
        "problems.build_env", "experiments.label",
    )
    unobserved = ("annealing.", "runtime.", "service.")
