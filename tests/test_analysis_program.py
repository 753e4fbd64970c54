"""The program linter: one fixture per NCK rule, suppression, and the
guarantee that every shipped program — the Table I problem generators
and the ``examples/`` scripts — is clean at error severity.

Rule semantics (codes, severities, messages) are catalogued in
``docs/analysis.md``; these tests pin each code firing exactly once on
a minimal degenerate program.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.__main__ import SOLVE_PROBLEMS, _build_problem
from repro.analysis import (
    Severity,
    estimate_qubits,
    exit_code,
    gate,
    lint_program,
    render_json,
    render_text,
)
from repro.analysis.program import PROGRAM_RULES
from repro.core import Env

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Examples fast enough to execute inside the lint sweep (the slow
#: full-scale demos are covered transitively: the pipeline lint
#: pre-pass runs on every compile they perform).
FAST_EXAMPLES = (
    "quickstart.py",
    "sat_solver.py",
    "map_coloring_demo.py",
    "custom_mixer_qaoa.py",
    "hpc_scheduling.py",
)


def codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


class TestRuleFixtures:
    """Each NCK code fires exactly once on its minimal trigger."""

    def test_nck101_infeasible_hard_is_an_error(self):
        env = Env()
        (a,) = env.register_ports(["a"])
        env.nck([a, a], [1])  # reachable counts {0, 2}
        diags = lint_program(env)
        assert codes(diags) == ["NCK101"]
        assert diags[0].severity == Severity.ERROR
        assert "unsatisfiable" in diags[0].message

    def test_nck101_infeasible_soft_is_a_warning(self):
        env = Env()
        (a,) = env.register_ports(["a"])
        env.nck([a, a], [1], soft=True)
        diags = lint_program(env)
        assert codes(diags) == ["NCK101"]
        assert diags[0].severity == Severity.WARNING

    def test_nck102_tautology(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [0, 1, 2])  # every TRUE-count admissible
        diags = lint_program(env)
        assert codes(diags) == ["NCK102"]
        assert diags[0].severity == Severity.WARNING

    def test_nck103_exact_duplicate(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [1])
        env.nck([a, b], [1])
        diags = lint_program(env)
        assert codes(diags) == ["NCK103"]
        assert "duplicates" in diags[0].message

    def test_nck103_subsumed_hard_constraint(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [1])
        env.nck([a, b], [0, 1])  # implied by the stricter {1}
        diags = lint_program(env)
        assert codes(diags) == ["NCK103"]
        assert "subsumed" in diags[0].message

    def test_nck104_unconstrained_variable(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a], [1])
        diags = lint_program(env)
        assert codes(diags) == ["NCK104"]
        assert "'b'" in diags[0].message

    def test_nck201_underflow(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [1])
        env.prefer_false(a)
        diags = lint_program(env, hard_scale=1.0)
        assert codes(diags) == ["NCK201"]
        assert "dominate" in diags[0].message

    def test_nck201_overflow(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [1])
        env.prefer_false(a)
        diags = lint_program(env, hard_scale=1e8)
        assert codes(diags) == ["NCK201"]

    def test_nck201_silent_without_explicit_hard_scale(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a, b], [1])
        env.prefer_false(a)
        assert lint_program(env) == []

    def test_nck301_qubit_budget(self):
        env = Env()
        ports = env.register_ports([f"v{i}" for i in range(4)])
        env.nck(ports, [2])
        diags = lint_program(env, qubit_budget=2)
        assert codes(diags) == ["NCK301"]
        assert "budget" in diags[0].message

    def test_every_program_rule_has_a_fixture_above(self):
        covered = {
            "NCK101", "NCK102", "NCK103", "NCK104", "NCK201", "NCK301",
        }
        assert set(PROGRAM_RULES) == covered


class TestSuppression:
    def test_ignore_drops_a_code(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a], [1])  # leaves b unconstrained
        assert codes(lint_program(env)) == ["NCK104"]
        assert lint_program(env, ignore=("NCK104",)) == []

    def test_ignore_is_case_insensitive_and_partial(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a], [1])
        env.nck([a], [1])  # duplicate; b stays unconstrained
        diags = lint_program(env, ignore=("nck103",))
        assert codes(diags) == ["NCK104"]

    def test_rules_selects_a_subset(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a], [1])
        env.nck([a, b], [0, 1, 2])
        diags = lint_program(env, rules=("NCK102",))
        assert codes(diags) == ["NCK102"]


class TestReporting:
    """Text, JSON and exit codes over program-lint findings."""

    def warning_diags(self):
        env = Env()
        a, b = env.register_ports(["a", "b"])
        env.nck([a], [1])  # leaves b unconstrained: one NCK104 warning
        return lint_program(env)

    def test_render_text_line_format(self):
        text = render_text(self.warning_diags())
        assert text.startswith("variable b: warning NCK104 ")
        assert text.endswith("0 errors, 1 warning, 0 info")

    def test_render_text_gate(self):
        text = render_text(self.warning_diags(), minimum=Severity.ERROR)
        assert text == "clean (no findings at or above error)"

    def test_render_json_envelope(self):
        payload = json.loads(render_json(self.warning_diags()))
        assert payload["version"] == 2
        assert payload["summary"] == {"error": 0, "warning": 1, "info": 0}
        (entry,) = payload["diagnostics"]
        assert entry["code"] == "NCK104" and entry["severity"] == "warning"
        assert entry["source"] == "program" and entry["object"] == "variable b"
        assert "file" not in entry and "line" not in entry

    def test_exit_codes(self):
        assert exit_code([]) == 0
        assert exit_code(self.warning_diags()) == 1
        env = Env()
        (a,) = env.register_ports(["a"])
        env.nck([a, a], [1])  # hard and infeasible: NCK101 error
        assert exit_code(lint_program(env)) == 2


class TestEstimateQubits:
    def test_counts_variables_and_interval_ancillas(self):
        env = Env()
        ports = env.register_ports([f"v{i}" for i in range(5)])
        env.nck(ports, [1, 2, 3])  # contiguous interval: slack ancillas
        variables, ancillas = estimate_qubits(env)
        assert variables == 5
        assert ancillas >= 1

    def test_exactly_k_needs_no_ancillas(self):
        env = Env()
        ports = env.register_ports(["a", "b", "c"])
        env.nck(ports, [2])
        assert estimate_qubits(env) == (3, 0)


class TestShippedProgramsAreClean:
    """Satellite: everything we ship lints clean at error severity."""

    @pytest.mark.parametrize("name", SOLVE_PROBLEMS)
    def test_problem_generators(self, name):
        env = _build_problem(name, 9, seed=2022).build_env()
        errors = gate(lint_program(env), Severity.ERROR)
        assert errors == [], [d.render() for d in errors]

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_examples(self, name, capsys, monkeypatch):
        """Run each example with compile/solve spies and lint every Env
        it actually builds."""
        seen: list[Env] = []
        original_to_qubo = Env.to_qubo
        original_solve = Env.solve

        def spy_to_qubo(self, **kwargs):
            seen.append(self)
            return original_to_qubo(self, **kwargs)

        def spy_solve(self, *args, **kwargs):
            seen.append(self)
            return original_solve(self, *args, **kwargs)

        monkeypatch.setattr(Env, "to_qubo", spy_to_qubo)
        monkeypatch.setattr(Env, "solve", spy_solve)
        monkeypatch.setattr(sys, "argv", [str(EXAMPLES / name)])
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        capsys.readouterr()  # swallow the example's stdout
        assert seen, f"{name} never compiled or solved an Env"
        for env in seen:
            errors = gate(lint_program(env), Severity.ERROR)
            assert errors == [], (name, [d.render() for d in errors])
