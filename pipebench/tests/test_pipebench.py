"""Tests of the pipeline benchmark itself.

Run from the repository root:

    python -m pytest pipebench/tests -q

Tiny configurations keep most tests to seconds; the run-length test
runs the full anneal-sweep once (about half a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pb_anneal  # noqa: E402
import pb_qaoa  # noqa: E402
import pb_service  # noqa: E402
import run  # noqa: E402
from pb_trace import Span, Tracer, split_by_layer  # noqa: E402


def tiny_anneal(seed=3):
    pts = [p for p in pb_anneal.study_points()
           if (p.problem, p.label) in {("min-vertex-cover", "9v"), ("max-cut", "9v"),
                                       ("exact-cover", "4el/4s"), ("min-set-cover", "4el/4s")}]
    return pb_anneal.AnnealSweep(seed, 1, points=pts, passes=1, strict=False)


def tiny_qaoa(seed=3):
    pts = [p for p in pb_qaoa.study_points() if p.label in ("6v", "9v", "4el/4s")]
    return pb_qaoa.QaoaSweep(seed, 1, points=pts, passes=2, strict=False)


def tiny_service(seed=3):
    return pb_service.ServiceMix(seed, 1, requests_per_tenant=40, strict=False)


TINY = {"anneal-sweep": tiny_anneal, "qaoa-sweep": tiny_qaoa, "service-mix": tiny_service}


def run_tiny(name, trace, seed=3):
    args = Namespace(workload=name, seed=seed, seconds=1.0, trace=trace, setup_only=False)
    wl, outcome, setup_s, tracer = run.execute(args, TINY[name](seed))
    if trace:
        metrics, _report = run.per_layer(wl, outcome, tracer)
    else:
        metrics = run.end_to_end(outcome, [setup_s], 1.0)
    return outcome, metrics, json.loads(run.result_line(outcome, metrics, trace))


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_declared_metric_with_its_unit(name, trace):
    outcome, _metrics, line = run_tiny(name, trace)
    spec = benchmark_json()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], outcome.wrong
    assert line["failed"] == 0, outcome.failures
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.declared(trace))
    for metric, body in line["metrics"].items():
        assert body["unit"] == units[metric], metric
        assert isinstance(body["value"], float), metric
        if not trace:
            assert body["value"] > 0, metric


def test_declared_metrics_match_benchmark_json():
    spec = benchmark_json()
    assert run.declared(0) == tuple(m["name"] for m in spec["end_to_end"])
    assert run.declared(1) == tuple(m["name"] for m in spec["per_layer"])
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_self_times_and_unattributed_sum_to_run_s():
    _outcome, metrics, _line = run_tiny("qaoa-sweep", 1)
    tracer = Tracer(True)
    with tracer.span("workload") as root:
        with tracer.span("point", op="p"):
            with tracer.span("compile"):
                pass
    split = split_by_layer(tracer.spans, root)
    assert sum(split.self_s.values()) + split.unattributed_s == pytest.approx(split.run_s)
    assert metrics["trace.run_s"][0] > metrics["trace.unattributed_s"][0] > 0


def test_concurrent_layer_spans_share_wall_time():
    root = Span(1, "workload", 0.0, 10.0, None, None)
    spans = [
        root,
        Span(2, "service", 1.0, 5.0, 1, "a"),
        Span(3, "service", 3.0, 7.0, 1, "b"),
        Span(4, "compile", 8.0, 9.0, 1, "c"),
    ]
    split = split_by_layer(spans, root)
    assert split.busy["service"] == pytest.approx(8.0)
    assert split.self_s["service"] == pytest.approx(6.0)
    assert split.self_s["compile"] == pytest.approx(1.0)
    assert split.unattributed_s == pytest.approx(3.0)


def test_quality_metrics_and_layer_counts_repeat_at_one_seed():
    for name in ("anneal-sweep", "qaoa-sweep"):
        first = run_tiny(name, 1)[0], run_tiny(name, 0)[0]
        second = run_tiny(name, 1)[0], run_tiny(name, 0)[0]
        for key in ("pct_optimal", "pct_correct"):
            assert first[1].e2e[key] == second[1].e2e[key], (name, key)
        counts = {k: v for k, v in first[0].layers.items()
                  if v[1] in ("count", "qubits", "layers")}
        assert counts and counts == {k: second[0].layers[k] for k in counts}, name
    a, b = run_tiny("service-mix", 1)[0], run_tiny("service-mix", 1)[0]
    for key in ("runtime.attempts", "service.result_hit_frac", "service.program_hit_frac",
                "compile.calls", "classical.calls", "service.rejected"):
        assert a.layers[key] == b.layers[key], key
    for key in ("pct_optimal", "pct_correct"):
        assert a.e2e[key] == b.e2e[key], key


def test_seed_changes_the_samples():
    a = run_tiny("anneal-sweep", 0, seed=3)[0].record["points"]
    b = run_tiny("anneal-sweep", 0, seed=4)[0].record["points"]
    assert [p["physical_qubits"] for p in a] == [p["physical_qubits"] for p in b]
    assert [p["optimal"] for p in a] != [p["optimal"] for p in b]


def test_anneal_point_path_matches_fig7_run_point():
    from repro.annealing.device import AnnealingDevice, AnnealingDeviceProfile
    from repro.experiments import fig7

    device = AnnealingDevice(AnnealingDeviceProfile.advantage41())
    config = fig7.Fig7Config()
    for point in [p for p in pb_anneal.study_points() if p.label in ("9v", "4el/4s", "5v/8c")][:4]:
        reference = fig7.run_point(device, point, config, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        ours = pb_anneal.run_point(device, point, rng, rng, Tracer(True), "check")
        assert pb_anneal.tally(ours) == vars(reference), point.label


def test_qaoa_point_path_matches_fig8_10_run_point():
    from repro.circuit.device import CircuitDevice, CircuitDeviceProfile
    from repro.experiments import fig8_10

    device = CircuitDevice(CircuitDeviceProfile.brooklyn())
    for point in [p for p in pb_qaoa.study_points() if p.label in ("6v", "4el/4s", "4v/6c")][:4]:
        reference = fig8_10.run_point(device, point, np.random.default_rng(5))
        ours = pb_qaoa.run_point(device, point, np.random.default_rng(5), Tracer(True), "check")
        assert ours["metrics"] == vars(reference), point.label


def test_checks_reject_a_tampered_embedding():
    from repro.annealing.device import AnnealingDevice, AnnealingDeviceProfile
    from repro.annealing.embedding import Embedding
    from repro.problems import MinVertexCover, vertex_scaling_graph

    device = AnnealingDevice(AnnealingDeviceProfile.small_test(m=4))
    program = MinVertexCover(vertex_scaling_graph(2)).build_env().to_qubo()
    embedding = device.embed(program, rng=np.random.default_rng(0))
    topology = device.profile.topology
    assert pb_anneal.check_embedding(program, embedding, topology) is None
    chains = dict(embedding.chains)
    a, b = list(chains)[:2]
    chains[a] = chains[b]  # two variables on one chain
    assert "invalid embedding" in pb_anneal.check_embedding(program, Embedding(chains), topology)


def test_checks_reject_a_wrong_service_answer():
    from repro.core.solution import Solution
    from repro.experiments.ground_truth import max_soft_satisfiable
    from repro.problems import MinVertexCover, circulant_graph

    inst = MinVertexCover(circulant_graph(7))
    env = inst.build_env()
    truth = max_soft_satisfiable(inst, env)
    everything = Solution.from_assignment(env, {v.name: True for v in env.variables})
    nothing = Solution.from_assignment(env, {v.name: False for v in env.variables})
    assert "suboptimal" in pb_service.check_answer("classical", inst, everything, truth)
    assert "hard constraints" in pb_service.check_answer("annealing", inst, nothing, None)
    assert pb_service.check_answer("annealing", inst, everything, None) is None


def test_checks_reject_a_hit_that_is_not_byte_identical():
    assert pb_service.check_hit(b"abc", b"abc") is None
    assert "differs" in pb_service.check_hit(b"abc", b"abd")
    assert "without" in pb_service.check_hit(b"abc", None)


def test_shape_checks_flag_broken_claims():
    rows = [
        {"problem": p, "optimal": o, "suboptimal": s, "incorrect": 100 - o - s}
        for p, o, s in [("min-set-cover", 5, 80), ("max-cut", 95, 5), ("3-sat", 10, 0),
                        ("exact-cover", 70, 0)]
    ]
    assert pb_anneal.fig7_shape(rows) is None
    rows[0]["suboptimal"] = 0
    assert "% correct" in pb_anneal.fig7_shape(rows)
    rows[0]["optimal"] = 85
    assert "% optimal" in pb_anneal.fig7_shape(rows)
    ms = [{"problem": "x", "constraints": c, "depth": d} for c, d in [(1, 30), (2, 20), (3, 10)]]
    assert "x" in pb_qaoa.fig10_shape(ms)


def test_default_service_plan_meets_the_sample_minimums():
    mix = pb_service.ServiceMix(seed=7, seconds=20)
    _instances, streams = pb_service.plan(7, mix.requests_per_tenant)
    reqs = [r for s in streams for r in s]
    assert sum(r.kind == "annealing" for r in reqs) >= 20
    assert sum(r.kind == "classical" and r.expect != "hit" for r in reqs) >= 200
    assert {r.expect for r in reqs} == {"hit", "warm", "cold"}


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "qaoa-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_anneal_sweep_stays_within_its_run_length_at_a_second_seed():
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "anneal-sweep", "--seed", "2",
         "--seconds", "20", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert line["metrics"]["run_s"]["value"] < 90.0
