"""Staged compiler pipeline: disk-cache warmup.

Compiles a Table-I-scale 3-SAT instance (20 variables, 91 clauses) in the
repeated-variable encoding — the paper's ``nck({x,y,z,z,z},…)`` clauses,
whose repeated-variable symmetry classes are exactly the MILP-bound
synthesis work the pipeline's disk tier targets.  The same program is
compiled against an empty then a populated ``TemplateStore``, and once
with the disk tier off; the warm path must be ≥ 5× faster than the cold
one (template synthesis dominates cold compilation), and all three
outputs must be identical.

Results land in ``BENCH_compile_pipeline.json`` next to the working
directory for trend tracking.  Set ``REPRO_BENCH_SMOKE=1`` (as
``make bench-smoke`` does) for a smaller instance.

Benchmarks the warm-disk-cache recompilation as the kernel.
"""

import json
import os
import tempfile
import time

import numpy as np

from repro.compile import compile_program
from repro.problems import KSat

from conftest import banner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

OUTPUT = "BENCH_compile_pipeline.json"


def table1_env():
    """The Table-I 3-SAT workload in the repeated-variable encoding."""
    num_vars, num_clauses = (10, 30) if SMOKE else (20, 91)
    rng = np.random.default_rng(2022)
    return KSat.random_3sat(num_vars, num_clauses, rng).build_env_repeated()


def qubos_equal(a, b) -> bool:
    """Exact (not tolerance-based) equality of two compiled programs."""
    return (
        a.qubo.offset == b.qubo.offset
        and a.qubo.linear == b.qubo.linear
        and a.qubo.quadratic == b.qubo.quadratic
        and a.variables == b.variables
        and a.ancillas == b.ancillas
    )


def test_pipeline_disk_cache(benchmark, full_scale):
    env = table1_env()

    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        cold = compile_program(env, cache_dir=cache_dir)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = compile_program(env, cache_dir=cache_dir)
        warm_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        serial = compile_program(env, disk_cache=False)
        serial_s = time.perf_counter() - t0

        warm_speedup = cold_s / warm_s if warm_s else float("inf")

        banner("COMPILE PIPELINE — disk-cache warmup")
        print(f"workload: {env!r}, classes {cold.cache_stats['templates']}")
        print(f"{'configuration':<28} {'wall_ms':>9}")
        print(f"{'cold disk cache':<28} {cold_s * 1e3:>9.1f}")
        print(f"{'warm disk cache':<28} {warm_s * 1e3:>9.1f}")
        print(f"{'serial (no disk)':<28} {serial_s * 1e3:>9.1f}")
        print(f"\nwarm-over-cold speedup: {warm_speedup:.1f}x "
              f"(disk {warm.cache_stats['disk_hits']} hits)")

        # The contract: every configuration emits the identical program.
        assert qubos_equal(cold, warm)
        assert qubos_equal(cold, serial)
        assert warm.cache_stats["disk_hits"] == warm.cache_stats["templates"]

        # Acceptance gate: warm recompilation ≥ 5× faster than cold.
        assert warm_speedup >= 5.0, (
            f"warm disk-cache recompilation ({warm_s * 1e3:.1f} ms) is only "
            f"{warm_speedup:.1f}x faster than cold ({cold_s * 1e3:.1f} ms)"
        )

        with open(OUTPUT, "w") as fh:
            json.dump(
                {
                    "workload": repr(env),
                    "smoke": SMOKE,
                    "cold_s": cold_s,
                    "warm_s": warm_s,
                    "serial_s": serial_s,
                    "warm_speedup": warm_speedup,
                },
                fh,
                indent=2,
            )
        print(f"results written to {OUTPUT}")

        # Kernel: the warm-disk-cache recompile.
        benchmark(lambda: compile_program(env, cache_dir=cache_dir))
