"""Solve service: warm fingerprint-hit vs cold-compile throughput.

Drives the multi-tenant solve service (``repro.service``) over growing
minimum-vertex-cover instances and times the two extremes of the
memoizing request path:

* **cold** — ``use_cache=False``: every request pays compile + solve;
* **warm** — the identical request repeated: the canonical fingerprint
  hits the result cache, so the service answers without compiling or
  sampling anything.

The headline claim is the warm/cold ratio of median per-request times —
the gate below asserts the **≥5× floor** the service was built for —
and the hit must
be *byte-identical* to the miss that populated it: same assignment,
same energy, same winner (the service returns the stored
``PortfolioResult`` object itself).

Results land in ``BENCH_service.json`` for trend tracking.  Set
``REPRO_BENCH_SMOKE=1`` (as ``make bench-smoke`` does) for a two-size
sweep.

Benchmarks the warm-hit request path as the kernel.
"""

import json
import os
import statistics
import time

from repro.problems import MinVertexCover, circulant_graph
from repro.service import ServiceClient, ServiceConfig, TenantQuota

from conftest import banner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

OUTPUT = "BENCH_service.json"

#: Circulant-graph sizes to serve.
SIZES = (6, 12) if SMOKE else (6, 12, 24, 48)

#: Requests per measurement (cold requests compile every time, so the
#: cold loop is shorter).
COLD_REPEATS = 5 if SMOKE else 10
WARM_REPEATS = 50 if SMOKE else 200

#: The acceptance floor on warm/cold throughput.
SPEEDUP_FLOOR = 5.0


def _bench_config() -> ServiceConfig:
    """A service config whose quota never throttles the measurement."""
    return ServiceConfig(
        workers=2,
        default_quota=TenantQuota(rate=1e9, burst=1_000_000, max_queued=1_000),
    )


def _median_call(call, repeats: int) -> tuple:
    """Median wall time of ``repeats`` calls, and the last call's result.

    The median of per-call times, not the loop mean: one call stalled by
    the scheduler or the host cannot drag the ratio under the floor.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _solution_bytes(outcome) -> bytes:
    """A canonical byte serialization of an outcome's solution."""
    return json.dumps(
        {
            "assignment": sorted(
                (name, bool(value))
                for name, value in outcome.solution.assignment.items()
            ),
            "energy": outcome.solution.energy,
            "winner": outcome.result.winner,
        },
        sort_keys=True,
    ).encode()


def test_warm_hit_vs_cold_compile(benchmark, full_scale):
    rows = []
    for n in SIZES:
        instance = MinVertexCover(circulant_graph(n))
        with ServiceClient(_bench_config()) as client:
            cold_s, cold = _median_call(
                lambda: client.solve(
                    instance, tenant="bench", backends="classical", seed=7,
                    use_cache=False,
                ),
                COLD_REPEATS,
            )

            # Prime both tiers, then measure pure fingerprint hits.
            miss = client.solve(
                instance, tenant="bench", backends="classical", seed=7
            )
            assert not miss.cache_hit
            warm_s, hit = _median_call(
                lambda: client.solve(
                    instance, tenant="bench", backends="classical", seed=7
                ),
                WARM_REPEATS,
            )
            assert hit.cache_hit and hit.compile_hit

            # Byte-identical: the hit serves the miss's stored result.
            assert hit.result is miss.result
            assert _solution_bytes(hit) == _solution_bytes(miss)
            assert _solution_bytes(hit) == _solution_bytes(cold)

        rows.append(
            {
                "n": n,
                "cold_ms": cold_s * 1e3,
                "warm_ms": warm_s * 1e3,
                "speedup": cold_s / warm_s,
            }
        )

    banner("SOLVE SERVICE — warm fingerprint-hit vs cold-compile path")
    print(f"{'n':>4} {'cold_ms':>9} {'warm_ms':>9} {'speedup':>9}")
    for row in rows:
        print(
            f"{row['n']:>4} {row['cold_ms']:>9.2f} {row['warm_ms']:>9.3f} "
            f"{row['speedup']:>8.1f}x"
        )

    floor = min(row["speedup"] for row in rows)
    print(f"\nminimum warm/cold speedup across the sweep: {floor:.1f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x)")
    assert floor >= SPEEDUP_FLOOR, (
        f"warm path only {floor:.1f}x faster than cold; "
        f"the memoized request path should clear {SPEEDUP_FLOOR:.0f}x"
    )

    with open(OUTPUT, "w") as fh:
        json.dump({"smoke": SMOKE, "floor": SPEEDUP_FLOOR, "rows": rows}, fh, indent=2)
    print(f"results written to {OUTPUT}")

    # Kernel: one warm fingerprint-hit request on the largest instance.
    instance = MinVertexCover(circulant_graph(SIZES[-1]))
    with ServiceClient(_bench_config()) as client:
        client.solve(instance, tenant="bench", backends="classical", seed=7)
        benchmark(
            lambda: client.solve(instance, tenant="bench", backends="classical", seed=7)
        )
