"""Encoding ablations the paper discusses qualitatively (Section VI-A).

* k-SAT: dual-rail (ancilla negations) vs. repeated-variable encodings —
  constraint counts, QUBO sizes, and ancilla usage;
* Max Cut: direct soft-edge encoding vs. explicit cut-indicator
  variables ("adds many unnecessary variables").

Benchmarks compilation of the dual-rail SAT encoding and of the
cut-indicator Max Cut encoding.
"""

import numpy as np

from repro.problems import KSat, MaxCut, vertex_scaling_graph

from conftest import banner


def test_ksat_encodings(benchmark):
    inst = KSat.random_3sat(8, 14, np.random.default_rng(5))

    dual = inst.build_env()
    repeated = inst.build_env_repeated()
    dual_q = dual.to_qubo()
    repeated_q = repeated.to_qubo()

    banner("ENCODING ABLATION — 3-SAT dual-rail vs repeated-variable")
    print(f"{'':24} {'dual-rail':>10} {'repeated':>10}")
    print(f"{'constraints':24} {dual.num_constraints:>10} {repeated.num_constraints:>10}")
    print(f"{'variables':24} {dual.num_variables:>10} {repeated.num_variables:>10}")
    print(f"{'QUBO terms':24} {dual_q.qubo.num_terms():>10} {repeated_q.qubo.num_terms():>10}")
    print(f"{'ancillas':24} {len(dual_q.ancillas):>10} {len(repeated_q.ancillas):>10}")
    print(
        "\npaper: repeated variables need fewer constraints but 'run the\n"
        "risk of requiring more ancillary qubits'."
    )
    assert repeated.num_constraints < dual.num_constraints
    assert repeated.num_variables < dual.num_variables

    # Both encodings solve to a satisfying assignment.
    assert inst.verify(dual.solve().assignment)
    assert inst.verify(repeated.solve().assignment)

    benchmark(lambda: inst.build_env().to_qubo())


def test_maxcut_encodings(benchmark):
    inst = MaxCut(vertex_scaling_graph(4))
    direct = inst.build_env()
    indicator = inst.build_env_indicator()

    banner("ENCODING ABLATION — Max Cut direct vs cut-indicator variables")
    print(f"{'':24} {'direct':>10} {'indicator':>10}")
    print(f"{'constraints':24} {direct.num_constraints:>10} {indicator.num_constraints:>10}")
    print(f"{'variables':24} {direct.num_variables:>10} {indicator.num_variables:>10}")
    print(
        f"{'QUBO terms':24} {direct.to_qubo().qubo.num_terms():>10} "
        f"{indicator.to_qubo().qubo.num_terms():>10}"
    )
    print("\npaper: the indicator encoding 'adds many unnecessary variables'.")
    assert indicator.num_variables > direct.num_variables
    assert indicator.num_constraints > direct.num_constraints

    # Same optimum through both encodings.
    opt = inst.optimal_cut_size()
    assert inst.cut_size(direct.solve().assignment) == opt
    assert inst.cut_size(indicator.solve().assignment) == opt

    benchmark(lambda: inst.build_env_indicator().to_qubo())
