"""Pipeline benchmark: one seeded workload, end to end, from one process.

    python3 pipebench/run.py --workload anneal-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``
through its public API only.  The launcher pins every BLAS/OpenMP pool
to one thread before numpy loads (QAOA labels depend on the thread
count) and keeps the program's own telemetry and on-disk caches off.

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
reruns it with spans around each layer call and prints the per-layer
split instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``pipebench/README.md`` for the workloads, metrics and records.
"""

import os
import sys
import time

T0 = time.perf_counter()

#: Thread pools pinned before numpy loads; recorded in every run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ["REPRO_TELEMETRY"] = "0"
os.environ.pop("REPRO_CACHE_DIR", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

WORKLOADS = ("anneal-sweep", "qaoa-sweep", "service-mix")
#: Set-ups per run; setup_s is their median.  One is this process's own.
SETUP_SAMPLES = 3
#: End-to-end metrics, printed by every workload with --trace 0.
E2E_METRICS = ("setup_s", "peak_rss_mb", "run_s", "ok_frac", "pct_optimal", "pct_correct")
#: Per-layer metrics and their units, printed by every workload with
#: --trace 1.
LAYER_UNITS = {
    "trace.run_s": "s", "trace.unattributed_s": "s",
    "annealing.embed.calls": "count", "annealing.embed.busy_s": "s",
    "annealing.embed.p50_s": "s", "annealing.embed.max_s": "s",
    "annealing.embed.fail_frac": "fraction", "annealing.embed.qubits": "qubits",
    "annealing.embed.max_chain": "qubits", "annealing.sample.calls": "count",
    "annealing.sample.busy_s": "s", "annealing.sample.spin_updates": "count",
    "annealing.sample.broken_frac": "fraction", "annealing.topology.busy_s": "s",
    "circuit.transpile.calls": "count", "circuit.transpile.busy_s": "s",
    "circuit.transpile.swaps": "count", "circuit.transpile.depth": "layers",
    "circuit.transpile.qubits": "qubits", "circuit.job.calls": "count",
    "circuit.job.busy_s": "s", "circuit.job.exact_calls": "count",
    "circuit.job.exact_busy_s": "s", "circuit.job.structural_busy_s": "s",
    "compile.calls": "count", "compile.busy_s": "s", "compile.qubo_vars": "count",
    "compile.qubo_terms": "count", "classical.calls": "count", "classical.busy_s": "s",
    "runtime.attempts": "count", "runtime.attempt_busy_s": "s", "runtime.retries": "count",
    "runtime.degraded": "count", "service.solve_p50_s": "s", "service.solve_p95_s": "s",
    "service.anneal_p50_s": "s", "service.queue_wait_s": "s", "service.hit_p50_s": "s",
    "service.cold_overhead_p50_s": "s", "service.warm_overhead_p50_s": "s",
    "service.anneal_overhead_p50_s": "s", "service.result_hit_frac": "fraction",
    "service.program_hit_frac": "fraction", "service.rejected": "count",
    "problems.build_env_busy_s": "s", "experiments.label.busy_s": "s",
}
#: Per-layer busy-time metric of each span layer.
BUSY_METRIC = {
    "annealing.embed": "annealing.embed.busy_s",
    "annealing.sample": "annealing.sample.busy_s",
    "circuit.transpile": "circuit.transpile.busy_s",
    "circuit.job": "circuit.job.busy_s",
    "compile": "compile.busy_s",
    "classical": "classical.busy_s",
    "problems.build_env": "problems.build_env_busy_s",
    "experiments.label": "experiments.label.busy_s",
}


def make_workload(name: str, seed: int, seconds: float):
    """The workload object planned for ``seconds`` of measured work."""
    if name == "anneal-sweep":
        from pb_anneal import AnnealSweep

        return AnnealSweep(seed, seconds)
    if name == "qaoa-sweep":
        from pb_qaoa import QaoaSweep

        return QaoaSweep(seed, seconds)
    from pb_service import ServiceMix

    return ServiceMix(seed, seconds)


def parse_args(argv):
    """The benchmark's command line, plus the internal --setup-only flag
    the benchmark passes to its own set-up processes."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (one setup_s sample)")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    return args


def extra_setups(args, count: int) -> list[dict]:
    """Set-up records (``setup_s`` and its parts) of ``count`` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    records = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return records


def execute(args, workload=None):
    """Set up and run one workload; returns ``(workload, outcome, setup_s, tracer)``."""
    from pb_common import Outcome
    from pb_trace import Tracer

    wl = workload or make_workload(args.workload, args.seed, args.seconds)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return wl, None, setup_s, None
        tracer = Tracer(bool(args.trace))
        outcome = Outcome(args.workload, args.seed)
        wl.run(tracer, outcome)
    finally:
        close = getattr(wl, "close", None)
        if close is not None and hasattr(wl, "client"):
            close()
    return wl, outcome, setup_s, tracer


def end_to_end(outcome, setups: list[float], rss_mb: float) -> dict:
    """The workload's end-to-end metrics, as printed."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "run_s": (outcome.run_s, "s"),
        "ok_frac": (outcome.ok_frac, "fraction"),
    }
    metrics.update(outcome.e2e)
    return metrics


def per_layer(workload, outcome, tracer) -> tuple[dict, str]:
    """The traced run's per-layer metrics and its printed report.

    The metrics a workload cannot observe (``workload.unobserved``: a
    layer it never calls, or one that runs only inside the service) read
    0, and the report names them.
    """
    from pb_trace import render, split_by_layer

    split = split_by_layer(tracer.spans, workload.root)
    metrics = dict(outcome.layers)
    for layer in workload.busy_layers:
        if layer in BUSY_METRIC:
            metrics[BUSY_METRIC[layer]] = (split.busy.get(layer, 0.0), "s")
        if f"{layer}.calls" in metrics:
            metrics[f"{layer}.calls"] = (float(split.calls.get(layer, 0)), "count")
    metrics["trace.run_s"] = (split.run_s, "s")
    metrics["trace.unattributed_s"] = (split.unattributed_s, "s")
    for name in LAYER_UNITS:
        if name.startswith(workload.unobserved):
            metrics[name] = (0.0, LAYER_UNITS[name])
    notes = outcome.notes + [
        "not observed on this workload (read 0): "
        + ", ".join(f"{prefix}*" for prefix in workload.unobserved)
    ]
    return metrics, render(split, notes)


def declared(trace: int) -> tuple[str, ...]:
    """The metric names every run with this ``--trace`` value prints."""
    return tuple(LAYER_UNITS) if trace else E2E_METRICS


def result_line(outcome, metrics: dict, trace: int) -> str:
    """The run's last line of output; the metric set must be the declared one."""
    expected = set(declared(trace))
    if set(metrics) != expected:
        raise RuntimeError(
            f"{outcome.workload} metrics differ from the declared set: "
            f"missing {sorted(expected - set(metrics))}, extra {sorted(set(metrics) - expected)}"
        )
    return json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    })


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"pipebench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing (run from a full checkout)", file=sys.stderr)
        return 2
    from pb_common import environment_record, peak_rss_mb, steal_seconds

    steal0, cpu0, wall0 = steal_seconds(), time.process_time(), time.perf_counter()
    wl, outcome, setup_s, tracer = execute(args)
    steal, cpu = steal_seconds() - steal0, time.process_time() - cpu0
    share = steal / ((time.perf_counter() - wall0) * (os.cpu_count() or 1))
    # Whatever the workload's own parts do not cover is interpreter start-up
    # and imports (numpy, scipy, networkx, repro).
    setup = dict(setup_s=setup_s, imports_s=setup_s - sum(wl.setup_parts.values()),
                 **wl.setup_parts)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    rss_mb = peak_rss_mb()
    print(f"pipebench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {outcome.attempted} operations, {outcome.failed} failed, "
          f"run_s {outcome.run_s:.3f}; process cpu {cpu:.3f} s, machine steal {steal:.3f} s "
          f"(steal share {share:.4f})")
    print("environment: " + json.dumps(environment_record(THREAD_ENV), sort_keys=True))
    for entry in outcome.failures:
        print(f"FAILED {entry}")
    if args.trace:
        metrics, report = per_layer(wl, outcome, tracer)
        print(report)
        os.makedirs(".pipebench", exist_ok=True)
        path = os.path.join(".pipebench", f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        print(f"spans written to {path}")
    else:
        setups = [setup] + extra_setups(args, SETUP_SAMPLES - 1)
        for rec in setups:
            print("setup " + " ".join(f"{k} {v:.3f}" for k, v in rec.items()))
        for note in outcome.notes:
            print(note)
        metrics = end_to_end(outcome, [rec["setup_s"] for rec in setups], rss_mb)
    print(result_line(outcome, metrics, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
