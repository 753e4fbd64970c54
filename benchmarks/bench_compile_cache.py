"""Compile-cache ablation (Section VIII-C).

The paper: the reference implementation "redundantly computes QUBOs for
symmetric constraints instead of caching previously computed QUBOs.  Due
to this wasted computation, the total time to compile a complete
NchooseK problem to a QUBO is 40–50× the time needed for direct
(non-QUBO) solution by the Z3 solver."

This bench measures our compiler with the cache (and closed forms)
disabled versus enabled, against the direct classical solve — the same
three quantities.  Benchmarks the cached compile.
"""

import pytest

from repro.experiments.timing import compile_cache_ablation
from repro.problems import (
    ExactCover,
    MapColoring,
    MaxCut,
    MinVertexCover,
    vertex_scaling_graph,
)

from conftest import banner


def test_compile_cache_ablation(benchmark, full_scale):
    import numpy as np

    k = 5 if full_scale else 4
    instances = [
        MinVertexCover(vertex_scaling_graph(k)),
        MaxCut(vertex_scaling_graph(k)),
        MapColoring(vertex_scaling_graph(3), 3),
        ExactCover.random_satisfiable(8, 8, np.random.default_rng(0)),
    ]
    rows = compile_cache_ablation(instances)

    banner("COMPILE-CACHE ABLATION — uncached vs cached vs direct solve")
    print(
        f"{'problem':<18} {'constraints':>11} {'uncached_ms':>12} "
        f"{'cached_ms':>10} {'solve_ms':>9} {'uncached/solve':>14} {'speedup':>8}"
    )
    for r in rows:
        print(
            f"{r.problem:<18} {r.constraints:>11} {r.compile_uncached_s*1e3:>12.1f} "
            f"{r.compile_cached_s*1e3:>10.2f} {r.classical_solve_s*1e3:>9.2f} "
            f"{r.uncached_over_solve:>14.1f} {r.cache_speedup:>8.1f}"
        )
    print(
        "\npaper: uncached compile ≈ 40–50× the direct classical solve;\n"
        "caching symmetric-constraint QUBOs removes the redundancy."
    )

    assert all(r.cache_speedup > 1.0 for r in rows)
    # At least one problem shows the paper's order-of-magnitude gap.
    assert max(r.uncached_over_solve for r in rows) > 10.0

    env = instances[0].build_env()
    benchmark(lambda: env.to_qubo())
