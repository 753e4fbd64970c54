"""Figure 9: transpiled circuit depth per problem, with quality marks.

Depth is "the number of gates in the longest path of a single QAOA
circuit" after layout/routing/basis decomposition.  Shape to compare:
deeper circuits correlate with suboptimal/incorrect results, with
problem-specific exceptions (the paper's Max Cut at depth 172 vs 179).
Benchmarks the transpilation pass itself.
"""

import numpy as np
import pytest

from repro.circuit import Transpiler, brooklyn_coupling_map, qaoa_circuit
from repro.experiments import fig8_10, format_table
from repro.qubo import qubo_to_ising

from conftest import banner


@pytest.fixture(scope="module")
def metrics(full_scale):
    config = fig8_10.Fig8Config(seed=2022)
    if full_scale:
        return fig8_10.run(config=config)
    from repro.experiments.scaling import cover_study, sat_study, vertex_study

    points = (
        vertex_study(triangles=(2, 3, 4))
        + cover_study(sizes=((4, 4), (8, 8)))
        + sat_study(sizes=((4, 6), (6, 10)))
    )
    return fig8_10.run(points=points, config=config)


def test_fig9_circuit_depth(benchmark, metrics):
    banner("FIGURE 9 — transpiled QAOA circuit depth (ibmq_brooklyn profile)")
    rows = sorted(metrics, key=lambda m: (m.problem, m.depth))
    print(format_table(rows, columns=["problem", "label", "depth", "quality"]))

    assert all(m.depth > 0 for m in metrics)

    # Kernel: transpile a representative 12-variable QAOA circuit.
    from repro.problems import MinVertexCover, vertex_scaling_graph

    program = MinVertexCover(vertex_scaling_graph(4)).build_env().to_qubo()
    model = qubo_to_ising(program.qubo)
    circ = qaoa_circuit(model, np.array([0.7]), np.array([0.3]))
    transpiler = Transpiler(brooklyn_coupling_map())
    benchmark(lambda: transpiler.transpile(circ))
