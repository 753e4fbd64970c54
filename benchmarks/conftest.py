"""Shared configuration for the gate and ablation benches.

Each ``bench_*`` module either gates one performance claim (the five
``make bench-smoke`` modules) or prints one ablation that EXPERIMENTS.md
and DESIGN.md cite, and registers a representative kernel with
pytest-benchmark.  The paper's tables and figures themselves are
printed by ``python -m repro <artifact>``.

Run with::

    pytest benchmarks/ --benchmark-only -s

Set ``REPRO_BENCH_FULL=1`` to run the full-scale studies (several
minutes); the default configuration is a faithful but smaller sweep.
"""

import os

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"


def banner(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL
