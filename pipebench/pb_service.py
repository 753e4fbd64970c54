"""service-mix: a closed loop of two tenants against the solve service.

Two client threads (one per core of the reference box) each act as one
tenant with its own seeded request stream and its own instance pool,
and send the next request only after the previous answer arrives.  All
requests go to ``ServiceClient(ServiceConfig(workers=2))`` in thread mode,
with quotas that never reject and backends named as ``repro serve``
names them.

The stream mixes all eight problem families at sizes the exact solver
answers in a few milliseconds, picked with Zipf popularity, as exact
repeats (result-cache hits), known instances with a new seed
(program-cache hit, then a solve) and first-seen instances (cold
compile, then a solve).  About 2% of requests are annealing requests on
a 9-vertex graph with a fresh seed.  Only here do compile, the classical
branch-and-bound and the service front end carry a large share, and
only here does each annealing request build its device afresh.

The pools of the two tenants are disjoint (checked by fingerprint) and
their seeds never coincide, so which request hits which cache depends on
the seed alone, not on how the threads interleave.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass

import networkx as nx
import numpy as np

from pb_common import Outcome, median, percentile
from pb_trace import Tracer

FAMILIES = (
    "vertex-cover", "max-cut", "clique-cover", "map-coloring",
    "exact-cover", "set-cover", "redundant-cover", "3sat",
)
SIZES = (8, 10, 12, 14)
#: Popularity order of the sizes within one family, most popular first.
POPULAR_SIZES = (10, 12, 8, 14)
VARIANTS = 2
TENANTS = 2
ZIPF_S = 1.1
#: Share of classical requests that repeat a (instance, seed) pair already sent.
REPEAT_SHARE = 0.45
ANNEAL_SHARE = 0.017
MIN_ANNEAL_PER_TENANT = 10
#: Requests per tenant per second of run length on the reference box.
REQUESTS_PER_SECOND = 30.0
#: Enough that both tenants together send 200+ classical non-hit requests,
#: the fewest a p95 with ten samples beyond it needs.
MIN_REQUESTS_PER_TENANT = 220
#: Seeds of tenant t are t * SEED_STRIDE + k, so tenants never share one.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Request:
    """One planned request."""

    op: str
    kind: str  # "classical" | "annealing"
    instance_id: str
    seed: int
    expect: str  # "hit" | "warm" | "cold"


def build_instance(family: str, n: int, rng: np.random.Generator):
    """A satisfiable instance of ``family`` with about ``n`` nodes/elements."""
    from repro.problems import (
        CliqueCover, ExactCover, KSat, MapColoring, MaxCut, MinSetCover,
        MinVertexCover, RedundantCover,
    )

    graph_seed = int(rng.integers(2**31))
    if family in ("vertex-cover", "max-cut"):
        g = nx.gnm_random_graph(n, int(1.6 * n), seed=graph_seed)
        return MinVertexCover(g) if family == "vertex-cover" else MaxCut(g)
    if family == "clique-cover":
        # Triangles on a random vertex order, plus random cross edges:
        # coverable by exactly n // 3 cliques.
        order = rng.permutation(n - n % 3)
        g = nx.Graph()
        g.add_nodes_from(range(len(order)))
        for k in range(0, len(order), 3):
            a, b, c = (int(x) for x in order[k:k + 3])
            g.add_edges_from([(a, b), (b, c), (a, c)])
        extra = nx.gnm_random_graph(len(order), len(order) // 2, seed=graph_seed)
        g.add_edges_from(extra.edges)
        return CliqueCover(g, len(order) // 3)
    if family == "map-coloring":
        # A planted 3-coloring keeps the instance satisfiable.
        colors = rng.integers(0, 3, size=n)
        cand = nx.gnm_random_graph(n, 2 * n, seed=graph_seed)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, v in cand.edges if colors[u] != colors[v])
        return MapColoring(g, 3)
    if family == "exact-cover":
        return ExactCover.random_satisfiable(n, n, rng)
    if family == "set-cover":
        return MinSetCover.from_exact_cover(ExactCover.random_satisfiable(n, n, rng))
    if family == "redundant-cover":
        return RedundantCover.random_satisfiable(n, max(3, n), rng)
    if family == "3sat":
        return KSat.random_3sat(n, max(1, int(1.7 * n)), rng)
    raise ValueError(f"unknown family {family!r}")


def anneal_instance(tenant: int):
    """The 9-vertex annealing instance of ``tenant`` (distinct per tenant)."""
    from repro.problems import MinVertexCover, circulant_graph, vertex_scaling_graph

    g = vertex_scaling_graph(3) if tenant == 0 else circulant_graph(9)
    return MinVertexCover(g)


def popularity_order(pool: list[str]) -> list[str]:
    """Pool instances by popularity rank, families taking turns.

    Rank r goes to family ``r mod 8``; within a family the sizes follow
    :data:`POPULAR_SIZES`, first variants first.  Every run then gives
    each family and size the same share of the Zipf mass, and the seed
    decides the instances' contents, not which sizes are popular: the
    p95 latency moved by a quarter between seeds while sizes were ranked
    at random.
    """
    def rank_in_family(iid: str) -> tuple[int, int]:
        _tenant, _family, size, variant = iid.split()
        return int(variant[1:]), POPULAR_SIZES.index(int(size[1:]))

    by_family: dict[str, list[str]] = {}
    for iid in sorted(pool, key=rank_in_family):
        by_family.setdefault(iid.split()[1], []).append(iid)
    depth = max(len(members) for members in by_family.values())
    return [
        by_family[family][rank]
        for rank in range(depth)
        for family in FAMILIES
        if rank < len(by_family.get(family, ()))
    ]


def plan(seed: int, requests_per_tenant: int):
    """Instance pools and request streams of both tenants, from ``seed``."""
    from repro.service.cache import request_fingerprint

    seen: set[str] = set()
    instances: dict[str, object] = {}
    streams: list[list[Request]] = []
    for t, seq in enumerate(np.random.SeedSequence(seed).spawn(TENANTS)):
        rng = np.random.default_rng(seq)
        pool = []
        for family in FAMILIES:
            for n in SIZES:
                for v in range(VARIANTS):
                    inst = build_instance(family, n, rng)
                    key = request_fingerprint(inst.build_env())
                    if key in seen:
                        continue
                    seen.add(key)
                    iid = f"t{t} {family} n{n} v{v}"
                    instances[iid] = inst
                    pool.append(iid)
        anneal_id = f"t{t} anneal 9v"
        instances[anneal_id] = anneal_instance(t)
        order = popularity_order(pool)
        weights = 1.0 / np.arange(1, len(order) + 1) ** ZIPF_S
        weights /= weights.sum()
        n_anneal = max(MIN_ANNEAL_PER_TENANT, round(ANNEAL_SHARE * requests_per_tenant))
        # Evenly spaced, the second tenant half a gap later: the tenants'
        # annealing requests overlap the other's classical ones the same
        # way in every run.
        gap = requests_per_tenant / n_anneal
        anneal_at = {int(gap * (k + 0.5 * t + 0.25)) for k in range(n_anneal)}
        used: dict[str, list[int]] = {}
        next_seed = t * SEED_STRIDE
        stream = []
        for j in range(requests_per_tenant):
            op = f"t{t} req {j}"
            if j in anneal_at:
                stream.append(Request(op, "annealing", anneal_id, next_seed,
                                      "warm" if anneal_id in used else "cold"))
                used.setdefault(anneal_id, []).append(next_seed)
                next_seed += 1
                continue
            iid = order[int(rng.choice(len(order), p=weights))]
            seeds = used.get(iid)
            if seeds and rng.random() < REPEAT_SHARE:
                stream.append(Request(op, "classical", iid, seeds[int(rng.integers(len(seeds)))], "hit"))
                continue
            stream.append(Request(op, "classical", iid, next_seed, "warm" if seeds else "cold"))
            used.setdefault(iid, []).append(next_seed)
            next_seed += 1
        streams.append(stream)
    return instances, streams


def check_answer(kind: str, instance, solution, truth: int | None) -> str | None:
    """Classical answers must be OPTIMAL against ``truth`` (computed outside
    the service); annealing answers must satisfy every hard constraint."""
    from repro.core.solution import SolutionQuality

    env = instance.build_env()
    if kind == "annealing":
        hard, _ = env.satisfied_counts(solution.assignment)
        if hard < len(env.hard_constraints):
            return f"annealing answer violates {len(env.hard_constraints) - hard} hard constraints"
        return None
    label = SolutionQuality.classify(env, solution.assignment, truth)
    if label is not SolutionQuality.OPTIMAL:
        return f"classical answer is {label.value}, not optimal"
    return None


def check_hit(hit_bytes: bytes, miss_bytes: bytes | None) -> str | None:
    """A result-cache hit must be byte-identical to the miss that filled it."""
    if miss_bytes is None:
        return "hit without a recorded miss"
    if hit_bytes != miss_bytes:
        return "result-cache hit differs from the miss that filled it"
    return None


class ServiceMix:
    """The service-mix workload."""

    name = "service-mix"

    def __init__(self, seed: int, seconds: float, requests_per_tenant: int | None = None,
                 strict: bool = True) -> None:
        """Plan the run: ``requests_per_tenant`` defaults from ``seconds``."""
        self.seed = seed
        self.requests_per_tenant = (
            max(MIN_REQUESTS_PER_TENANT, round(seconds * REQUESTS_PER_SECOND))
            if requests_per_tenant is None else requests_per_tenant
        )
        self.strict = strict

    def setup(self) -> None:
        """Plan the streams, start the service, warm both request kinds."""
        from repro.problems import MaxCut, MinVertexCover, circulant_graph, vertex_scaling_graph
        from repro.service import ServiceClient, ServiceConfig, TenantQuota

        t1 = time.perf_counter()
        self.instances, self.streams = plan(self.seed, self.requests_per_tenant)
        t2 = time.perf_counter()
        quota = TenantQuota(rate=1e9, burst=10**9, max_queued=64)
        self.client = ServiceClient(ServiceConfig(workers=2, mode="thread", default_quota=quota))
        t3 = time.perf_counter()
        # Inputs outside both pools: 7-node graphs and a max-cut instance.
        self.client.solve(MinVertexCover(circulant_graph(7)), tenant="warm-up",
                          backends="classical", seed=SEED_STRIDE * TENANTS)
        self.client.solve(MaxCut(vertex_scaling_graph(3)), tenant="warm-up",
                          backends="annealing", seed=SEED_STRIDE * TENANTS + 1)
        self.setup_parts = {"plan_s": t2 - t1, "service_s": t3 - t2,
                            "warmup_s": time.perf_counter() - t3}

    def close(self) -> None:
        """Drain and stop the service."""
        self.client.close()

    def _tenant(self, t: int, tracer: Tracer, root_id, log: list) -> None:
        from repro.service import AdmissionRejected

        for req in self.streams[t]:
            inst = self.instances[req.instance_id]
            t0 = time.perf_counter()
            try:
                with tracer.span("service", op=f"{req.op} {req.instance_id}", parent=root_id):
                    out = self.client.solve(inst, tenant=f"tenant-{t}", backends=req.kind,
                                            seed=req.seed)
            except AdmissionRejected as exc:
                log.append((req, None, time.perf_counter() - t0, f"rejected: {exc.reason}", None))
                continue
            except Exception as exc:  # a failed request, named in the outcome
                log.append((req, None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None))
                continue
            latency = time.perf_counter() - t0
            log.append((req, out, latency, None, pickle.dumps(out.result)))

    def run(self, tracer: Tracer, outcome: Outcome) -> None:
        """Both tenants' streams, then the output checks (outside ``run_s``)."""
        logs: list[list] = [[] for _ in range(TENANTS)]
        with tracer.span("workload") as root:
            root_id = root.id if root is not None else None
            threads = [
                threading.Thread(target=self._tenant, args=(t, tracer, root_id, logs[t]),
                                 name=f"tenant-{t}")
                for t in range(TENANTS)
            ]
            t0 = time.perf_counter()
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=170.0)
            outcome.run_s = time.perf_counter() - t0
        self.root = root
        if any(th.is_alive() for th in threads):
            raise RuntimeError("a tenant thread did not finish")
        entries = [e for log in logs for e in log]
        outcome.attempted = sum(len(stream) for stream in self.streams)
        if len(entries) < outcome.attempted:
            outcome.fail("tenant threads", f"answered {len(entries)} of {outcome.attempted} requests")
        self._check(entries, outcome)
        self._metrics(entries, outcome, tracer)

    def _check(self, entries, outcome: Outcome) -> None:
        from repro.core.solution import SolutionQuality
        from repro.experiments.ground_truth import max_soft_satisfiable

        truths: dict[str, int] = {}
        misses: dict[tuple[str, int], bytes] = {}
        self.labels: list[SolutionQuality] = []
        for req, out, _lat, err, blob in entries:
            if out is not None and not out.cache_hit:
                misses[(req.instance_id, req.seed)] = blob
        for req, out, _lat, err, blob in entries:
            if err is not None:
                outcome.fail(req.op, err)
                continue
            inst = self.instances[req.instance_id]
            if req.instance_id not in truths:
                truths[req.instance_id] = max_soft_satisfiable(inst)
            truth = truths[req.instance_id]
            self.labels.append(
                SolutionQuality.classify(inst.build_env(), out.solution.assignment, truth)
            )
            bad = check_answer(req.kind, inst, out.solution, truth)
            if bad is None and out.cache_hit:
                bad = check_hit(blob, misses.get((req.instance_id, req.seed)))
            if bad:
                outcome.fail(f"{req.op} {req.instance_id}", bad, wrong=True)

    def _metrics(self, entries, outcome: Outcome, tracer: Tracer) -> None:
        ok = [(req, out, lat) for req, out, lat, err, _b in entries if out is not None]
        solve = [lat for req, out, lat in ok if req.kind == "classical" and not out.cache_hit]
        anneal = [lat for req, out, lat in ok if req.kind == "annealing"]
        strict = self.strict
        labelled = len(self.labels) or 1
        optimal = sum(1 for q in self.labels if q.value == "optimal")
        correct = sum(1 for q in self.labels if q.value != "incorrect")
        outcome.e2e.update({
            "pct_optimal": (100.0 * optimal / labelled, "%"),
            "pct_correct": (100.0 * correct / labelled, "%"),
        })

        def overhead(out) -> float:
            return out.wall_s - out.queued_s - out.result.wall_s

        misses = [(req, out) for req, out, _l in ok if not out.cache_hit]
        compiles = sum(1 for _r, o in misses if not o.compile_hit)
        cold = [overhead(o) for r, o in misses if r.kind == "classical" and not o.compile_hit]
        warm = [overhead(o) for r, o in misses if r.kind == "classical" and o.compile_hit]
        ann = [overhead(o) for r, o in misses if r.kind == "annealing"]
        hits = [lat for req, out, lat in ok if out.cache_hit]
        attempts = [a for _r, o in misses for a in o.result.attempts]
        retries = sum(
            max(0, len(o.result.attempts_for(b)) - 1)
            for _r, o in misses for b in {a.backend for a in o.result.attempts}
        )
        classical_attempts = [a for a in attempts if a.backend.startswith("classical")]
        n = len(ok) or 1
        outcome.layers.update({
            "service.solve_p50_s": (percentile(solve, 0.5, strict=strict), "s"),
            "service.solve_p95_s": (percentile(solve, 0.95, strict=strict), "s"),
            "service.anneal_p50_s": (percentile(anneal, 0.5, strict=strict), "s"),
            "runtime.attempts": (float(len(attempts)), "count"),
            "runtime.attempt_busy_s": (sum(a.wall_s for a in attempts), "s"),
            "runtime.retries": (float(retries), "count"),
            "runtime.degraded": (float(sum(1 for _r, o in misses if o.result.degraded)), "count"),
            "service.queue_wait_s": (sum(o.queued_s for _r, o in misses), "s"),
            "service.hit_p50_s": (median(hits), "s"),
            "service.cold_overhead_p50_s": (median(cold), "s"),
            "service.warm_overhead_p50_s": (median(warm), "s"),
            "service.anneal_overhead_p50_s": (median(ann), "s"),
            "service.result_hit_frac": (sum(1 for _r, o, _l in ok if o.cache_hit) / n, "fraction"),
            "service.program_hit_frac": (sum(1 for _r, o, _l in ok if o.compile_hit) / n, "fraction"),
            "service.rejected": (
                float(sum(1 for _r, out, _l, err, _b in entries if err and err.startswith("rejected"))),
                "count",
            ),
            "compile.calls": (float(compiles), "count"),
            "compile.busy_s": (max(0.0, median(cold) - median(warm)) * compiles, "s"),
            "classical.calls": (float(len(classical_attempts)), "count"),
            "classical.busy_s": (sum(a.wall_s for a in classical_attempts), "s"),
        })
        expected = {"hit": 0, "warm": 0, "cold": 0}
        mismatched = 0
        for req, out, _l in ok:
            expected[req.expect] += 1
            got = "hit" if out.cache_hit else "warm" if out.compile_hit else "cold"
            mismatched += got != req.expect
        outcome.notes.append(
            f"requests: {len(entries)} ({len(anneal)} annealing); planned hit/warm/cold "
            f"{expected['hit']}/{expected['warm']}/{expected['cold']}, "
            f"{mismatched} served otherwise; {len(solve)} classical non-hit latencies"
        )
        outcome.notes.append(
            "split: each service span encloses queueing, compile, the portfolio run and "
            "the front end; from result fields, overhead = wall_s - queued_s - portfolio "
            "wall_s, compile.busy_s = (cold - warm classical overhead median) x cold requests, and "
            "classical.busy_s sums the exact solver's attempt wall_s"
        )
        if tracer.enabled:
            from repro.annealing.device import AnnealingDeviceProfile

            t0 = time.perf_counter()
            AnnealingDeviceProfile.advantage41()
            build = time.perf_counter() - t0
            outcome.layers["annealing.topology.busy_s"] = (build, "s")
            outcome.notes.append(
                f"probe: one Pegasus P16 profile build took {build:.3f} s after the run; "
                "every annealing request builds two inside the service"
            )

    busy_layers = ("service",)
    #: Embedding, sampling, compile and the classical solver run inside the
    #: service, where only the result fields above can see them.
    unobserved = ("annealing.embed.", "annealing.sample.", "circuit.", "compile.qubo_",
                  "problems.", "experiments.")
