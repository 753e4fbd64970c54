"""Tests for the experiment drivers (scaled-down configurations)."""

import numpy as np
import pytest

from repro.experiments import (
    fig7,
    fig8_10,
    fig11,
    fig12,
    format_table,
    max_soft_satisfiable,
    table1,
)
from repro.experiments.scaling import (
    EDGE_STUDY_EDGES,
    cover_study,
    edge_study,
    sat_study,
    vertex_study,
)
from repro.experiments.timing import (
    compile_cache_ablation,
    dwave_job_breakdown,
    ibm_execution_breakdown,
)
from repro.problems import MaxCut, MinVertexCover, vertex_scaling_graph


class TestScalingStudies:
    def test_vertex_study_shares_graphs(self):
        points = vertex_study(triangles=(2,))
        assert len(points) == 4  # four graph problems
        labels = {p.label for p in points}
        assert labels == {"6v"}

    def test_edge_study_waypoints(self):
        points = edge_study()
        assert [p.label for p in points] == [f"{e}e" for e in EDGE_STUDY_EDGES]

    def test_cover_study_pairs(self):
        points = cover_study(sizes=((4, 4),))
        assert [p.problem for p in points] == ["exact-cover", "min-set-cover"]
        # Shared subsets:
        assert points[0].instance.subsets == points[1].instance.subsets

    def test_sat_study(self):
        points = sat_study(sizes=((4, 6),))
        assert points[0].instance.is_satisfiable()


class TestGroundTruth:
    def test_hard_only_is_zero(self):
        from repro.problems import MapColoring

        inst = MapColoring(vertex_scaling_graph(2), 3)
        assert max_soft_satisfiable(inst) == 0

    def test_maxcut_uses_dp_on_chain_family(self):
        inst = MaxCut(vertex_scaling_graph(9))  # 27 vertices: B&B-hostile
        assert max_soft_satisfiable(inst) == 2 + 4 * 8

    def test_maxcut_other_graph_uses_solver(self):
        import networkx as nx

        inst = MaxCut(nx.cycle_graph(6))
        assert max_soft_satisfiable(inst) == 6

    def test_mixed_problem(self):
        inst = MinVertexCover(vertex_scaling_graph(2))
        g = inst.graph
        assert (
            max_soft_satisfiable(inst)
            == g.number_of_nodes() - inst.optimal_cover_size()
        )


class TestTable1:
    def test_rows_cover_all_seven_problems(self):
        rows = table1.run()
        assert len(rows) == 7
        assert {r.problem for r in rows} == {
            "Exact Cover",
            "Min. Cover",
            "Min. Vert. Cover",
            "Map Color",
            "Clique Cover",
            "k-SAT",
            "Max. Cut",
        }

    def test_nonsymmetric_counts_match_paper(self):
        """Table I column 3 for the constant-class problems."""
        by_name = {r.problem: r for r in table1.run()}
        assert by_name["Min. Vert. Cover"].nonsymmetric == 2
        assert by_name["Map Color"].nonsymmetric == 2
        assert by_name["Clique Cover"].nonsymmetric == 2
        assert by_name["Max. Cut"].nonsymmetric == 1
        assert by_name["k-SAT"].nonsymmetric == 2  # dual-rail encoding

    def test_generated_matches_handmade_except_sat_and_mincover(self):
        """The §VI-B equivalence claim."""
        for row in table1.run():
            if row.problem in ("k-SAT", "Min. Cover"):
                assert row.generated_qubo_terms != row.handmade_qubo_terms
            else:
                assert row.generated_qubo_terms == row.handmade_qubo_terms

    def test_render(self):
        assert "Min. Vert. Cover" in table1.render(table1.run())


class TestFig7:
    def test_small_run(self):
        points = vertex_study(triangles=(2,), problems=("min-vertex-cover", "max-cut"))
        tallies = fig7.run(points=points, config=fig7.Fig7Config(num_reads=20, seed=1))
        assert len(tallies) == 2
        for t in tallies:
            assert t.total == 20
            assert t.physical_qubits >= t.logical_variables

    def test_noiseless_small_problems_all_optimal(self):
        points = vertex_study(triangles=(2,), problems=("min-vertex-cover",))
        tallies = fig7.run(
            points=points,
            config=fig7.Fig7Config(num_reads=20, seed=2, noiseless=True),
        )
        assert tallies[0].pct_optimal > 50.0


class TestFig8:
    def test_small_run(self):
        points = vertex_study(triangles=(2,), problems=("max-cut",))
        metrics = fig8_10.run(points=points, config=fig8_10.Fig8Config(seed=3))
        assert len(metrics) == 1
        m = metrics[0]
        assert m.logical_variables <= m.qubits_used <= 65
        assert m.depth > 0
        assert m.quality in ("optimal", "suboptimal", "incorrect")

    def test_oversized_instances_skipped(self):
        points = vertex_study(triangles=(9,), problems=("map-coloring",))
        metrics = fig8_10.run(points=points)
        assert metrics == []  # 27 vertices × 3 colors = 81 > 65 qubits


class TestFig11:
    def test_job_times_in_range(self):
        obs = fig11.run(points=vertex_study(triangles=(2,)))
        assert all(7.0 <= o.job_time_s <= 23.0 for o in obs)

    def test_boxplot_summary(self):
        obs = fig11.run(points=vertex_study(triangles=(2, 3)))
        rows = fig11.boxplot_summary(obs)
        for row in rows:
            assert row["min"] <= row["q1"] <= row["median"] <= row["q3"] <= row["max"]
        # No size trend: the medians stay well inside the 7-23 s band.
        medians = [row["median"] for row in rows]
        assert max(medians) - min(medians) < 8.0


class TestFig12:
    def test_quick_run_and_fit(self):
        config = fig12.Fig12Config(sizes=(9, 12, 15), repetitions=3)
        points = fig12.run(config)
        assert len(points) == 9
        fit = fig12.polynomial_fit(points)
        assert "degree" in fit and fit["r_squared"] <= 1.0

    @pytest.mark.slow
    def test_polynomial_fit_over_the_quick_window(self):
        """The paper's "fit very close to a polynomial equation", on the
        ``python -m repro fig12`` configuration; it times real solves."""
        config = fig12.Fig12Config(sizes=(9, 15, 21, 27), repetitions=10)
        assert fig12.polynomial_fit(fig12.run(config))["r_squared"] > 0.7

    def test_cover_sizes_consistent(self):
        config = fig12.Fig12Config(sizes=(9,), repetitions=2)
        points = fig12.run(config)
        assert len({p.cover_size for p in points}) == 1


class TestTiming:
    def test_dwave_breakdown_paper_scale(self):
        b = dwave_job_breakdown(100)
        assert 0.02 <= b["qpu_access"] <= 0.04  # "about 30 ms apiece"
        assert b["sampling"] < b["programming"]

    def test_ibm_breakdown_paper_scale(self):
        b = ibm_execution_breakdown()
        assert 300 <= b["total"] <= 700  # "roughly 500 seconds"

    def test_compile_cache_ablation(self):
        instances = [MinVertexCover(vertex_scaling_graph(2))]
        rows = compile_cache_ablation(instances)
        assert rows[0].compile_uncached_s > rows[0].compile_cached_s
        assert rows[0].cache_speedup > 1.0


class TestRecords:
    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_quality_tally_percentages(self):
        from repro.experiments import QualityTally

        t = QualityTally("p", "l", 1, 1, 1, optimal=30, suboptimal=50, incorrect=20)
        assert t.pct_optimal == pytest.approx(30.0)
        assert t.pct_correct == pytest.approx(80.0)


class TestUtilizationSummary:
    def test_paper_conclusion_shape(self):
        """Successful runs reach substantial IBM utilization but only a
        few percent of the annealer (the paper's concluding numbers)."""
        from repro.experiments.records import utilization_summary

        metrics = fig8_10.run(
            points=vertex_study(triangles=(2, 3), problems=("max-cut", "min-vertex-cover"))
        )
        tallies = fig7.run(
            points=vertex_study(triangles=(3, 5), problems=("max-cut", "min-vertex-cover")),
            config=fig7.Fig7Config(num_reads=50, seed=9),
        )
        summary = utilization_summary(metrics, tallies)
        lo, hi = summary["circuit_utilization_pct"]
        assert hi >= 10.0  # IBM: double-digit utilization even when small
        alo, ahi = summary["annealer_utilization_pct"]
        assert ahi < 10.0  # D-Wave: single-digit percent of 5580 qubits

    def test_empty_inputs(self):
        from repro.experiments.records import utilization_summary

        summary = utilization_summary([], [])
        assert summary["circuit_max_qubits"] == 0
        assert summary["annealer_utilization_pct"] == (0.0, 0.0)
