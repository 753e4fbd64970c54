"""The encoding portfolio: registry, selection, equivalence, provenance.

Four layers of guarantees:

* **Registry & modes** — the strategy registry is the single source of
  truth for CLI choices and pipeline validation.
* **Byte-identity** — ``encoding="auto"`` reproduces the pre-portfolio
  compiler output bit-for-bit on every Table I family (pinned
  fingerprints at two sizes).
* **Cross-encoding equivalence** — every strategy's encoding of the
  same constraint accepts exactly the constraint's selection set and
  penalizes everything else by at least the hard gap (hypothesis-driven
  over random inequality windows).
* **Provenance & isolation** — decisions ride on the compiled program,
  NCK5xx diagnostics audit them, and the template store never serves
  one strategy's template for another.
"""

import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import certify_program, encoding_diagnostics
from repro.classical import ExactQUBOSolver
from repro.compile import (
    DEFAULT_STRATEGY,
    build_strategy_template,
    encode_candidate,
    encoding_modes,
    get_strategy,
    register_strategy,
    strategy_names,
    template_key,
)
from repro.compile.encodings import (
    CandidateSummary,
    EncodingDecision,
    EncodingStrategy,
    encoding_cost,
    rank_candidates,
    select_candidate,
)
from repro.compile.pipeline.store import TemplateStore
from repro.compile.synthesize import GAP
from repro.core import nck
from repro.problems import RedundantCover
from repro.qubo import enumerate_assignments


def fresh_namer():
    counter = iter(range(1000))
    return lambda: f"_anc{next(counter)}"


# ---------------------------------------------------------------------------
# Registry & modes
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_registered_order_and_default(self):
        assert strategy_names() == ("closed-form", "penalty", "slack", "slack-free")
        assert DEFAULT_STRATEGY == "penalty"

    def test_competing_excludes_closed_form(self):
        assert strategy_names(competing_only=True) == ("penalty", "slack", "slack-free")

    def test_modes_are_auto_best_plus_strategies(self):
        assert encoding_modes() == ("auto", "best") + strategy_names()

    def test_unknown_strategy_names_the_known_ones(self):
        with pytest.raises(ValueError, match="penalty"):
            get_strategy("one-hot")

    def test_duplicate_registration_rejected(self):
        class Impostor(EncodingStrategy):
            name = "penalty"

            def applies(self, constraint, exact_penalty):
                return False

            def encode(self, constraint, ancilla_namer, exact_penalty):
                return None

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Impostor())

    def test_cli_choices_match_registry(self):
        """--encoding help stays in lockstep with the registry."""
        from repro.__main__ import _configure_compile

        parser = argparse.ArgumentParser()
        _configure_compile(parser)
        action = next(a for a in parser._actions if "--encoding" in a.option_strings)
        assert tuple(action.choices) == encoding_modes()
        assert action.default == "auto"


# ---------------------------------------------------------------------------
# Pinned fingerprints: auto byte-identical forever, best selections fixed
# ---------------------------------------------------------------------------

#: ``_build_problem(family, n, 0).build_env().to_qubo(encoding=...)``
#: fingerprints.  The ``auto`` entries are those of the pre-portfolio
#: compiler and must hold forever; the ``best`` entries pin the
#: portfolio's selections.
PINNED_FINGERPRINTS = {
    ("vertex-cover", 5, "auto"): "d83b4fc893394d167fcc5fa056f9849c35d582a05373cc623d0bcb8ed2c45967",
    ("max-cut", 5, "auto"): "59f5fbf081511890be2c3d1a3bddd8c58dc4fadd1f4fd9374f192825daabb830",
    ("clique-cover", 5, "auto"): "048fcff0e83951622a4b5b6116f0b3a7013efa0c1525f04f3c2fcba33f540995",
    ("map-coloring", 5, "auto"): "aac4dff0431f97a87f12d9a94d5ec6a6effb980039bdb0a84f455b28115044a5",
    ("exact-cover", 5, "auto"): "09baec0b3b1aeeb93ad6f10e60937c609dbde1a12435e1888206231872670918",
    ("set-cover", 5, "auto"): "90f34324fe6c30d8cf31b9d329c27b9fa3113eebc79bddde57a73f6672251eb4",
    ("3sat", 5, "auto"): "705395caa0a6e18c399f6f80f190ee32e0bbb1a16a6d6421af1e129c27907f55",
    ("vertex-cover", 8, "auto"): "a53d69a6d56c6101d4d3a9591f32a3d77e756e786465dc43ea9385278b293363",
    ("max-cut", 8, "auto"): "0ccab42b953ca950afd2ca0a57dce96f920606b6d2e499f567b6351ca9962420",
    ("clique-cover", 8, "auto"): "ff6c14f5dc0dd9e59fd9e86660185496829db871a2931c657821f84c87b78f7f",
    ("map-coloring", 8, "auto"): "e3b64b8422ac01ec705afbd3f66cbd5819ec66095b627bcddc6c68260703fe37",
    ("exact-cover", 8, "auto"): "533b419cb4410dd443ee03f50b302c473552e6b95278231673ee48ada7192a30",
    ("set-cover", 8, "auto"): "f6fe3823eab90f5b35dadad056f82db78f6a3f000d460c8b838794658015aaac",
    ("3sat", 8, "auto"): "61d97602a2e2eb69b8a3586026ec8bbd111f630b05f89cbd6e9ccb6b9149edc8",
    ("redundant-cover", 5, "auto"): "eaa46460efbaab766ecc6bec3ae80d78f9086c6b8219c88d78da22d971de1db0",
    ("redundant-cover", 8, "auto"): "85a3c790c0b1a38c2f09091f12dec1dde588a3917a83ffa06e624b94aae541f4",
    ("redundant-cover", 8, "best"): "4f7ba24ad79a894e170461320ae5c42c44c0ace097f5c26ef273223043fb35f1",
    ("set-cover", 8, "best"): "a596acd70b3ea7f5d877a37b0f49edcefcef8b4ea9ddd4f71e61a07496c7ac50",
    ("3sat", 8, "best"): "03ac4b2dcb65a2657a5b8c7e2071adfed62734dc1c1de5e3cf8ad398709dee90",
}


def _pin_id(key: tuple) -> str:
    """``family-n``, with ``-encoding`` appended off the default mode."""
    family, n, encoding = key
    return f"{family}-{n}" if encoding == "auto" else f"{family}-{n}-{encoding}"


class TestAutoIsByteIdentical:
    @pytest.mark.parametrize(
        "family,n,encoding",
        sorted(PINNED_FINGERPRINTS),
        ids=[_pin_id(key) for key in sorted(PINNED_FINGERPRINTS)],
    )
    def test_pinned_fingerprint(self, family, n, encoding):
        from repro.__main__ import _build_problem

        env = _build_problem(family, n, 0).build_env()
        compiled = env.to_qubo(disk_cache=False, encoding=encoding)
        assert compiled.encoding == encoding
        assert (compiled.encoding_decisions == ()) == (encoding == "auto")
        assert compiled.fingerprint == PINNED_FINGERPRINTS[(family, n, encoding)]


# ---------------------------------------------------------------------------
# Cross-encoding equivalence (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def window_constraints(draw):
    """Distinct-variable constraints with a contiguous accepting window.

    Multiplicity-1 and contiguity make *every* competing strategy
    applicable, so each draw exercises the whole portfolio.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    lo = draw(st.integers(min_value=0, max_value=n))
    hi = draw(st.integers(min_value=lo, max_value=n))
    soft = draw(st.booleans())
    return nck([f"v{i}" for i in range(n)], range(lo, hi + 1), soft=soft)


def feasible_set(constraint, candidate):
    """Base assignments whose min-over-ancilla energy sits at the floor."""
    base = [str(v) for v in constraint.collection.unique]
    ancillas = list(candidate.ancillas)
    names = base + ancillas
    q = candidate.qubo
    X = enumerate_assignments(len(names))
    energies = q.energies(X, names)
    accepted = set()
    rejected_margin = float("inf")
    per_base = {}
    for row, e in zip(X, energies):
        key = tuple(int(b) for b in row[: len(base)])
        per_base[key] = min(per_base.get(key, float("inf")), float(e))
    for key, e in per_base.items():
        if e < GAP / 2:
            accepted.add(key)
        else:
            rejected_margin = min(rejected_margin, e)
    return accepted, rejected_margin


class TestCrossEncodingEquivalence:
    @given(window_constraints())
    @settings(max_examples=60, deadline=None)
    def test_identical_feasible_sets_and_gap_margins(self, constraint):
        base = [str(v) for v in constraint.collection.unique]
        truth = {
            tuple(row)
            for row in enumerate_assignments(len(base)).astype(int)
            if int(sum(row)) in constraint.selection
        }
        seen = {}
        for name in strategy_names(competing_only=True):
            cand = encode_candidate(
                name, constraint, fresh_namer(), constraint.soft, verify=True
            )
            if cand is None:
                continue
            assert cand.verified is True, f"{name} failed its own verification"
            accepted, margin = feasible_set(constraint, cand)
            assert accepted == truth, f"{name} encodes a different feasible set"
            if len(truth) < 2 ** len(base):
                assert margin >= GAP - 1e-6, f"{name} dominance margin {margin}"
            seen[name] = accepted
        assert DEFAULT_STRATEGY in seen, "default strategy must always encode"

    @given(window_constraints())
    @settings(max_examples=30, deadline=None)
    def test_cost_model_is_deterministic(self, constraint):
        a = encode_candidate(DEFAULT_STRATEGY, constraint, fresh_namer(), False)
        b = encode_candidate(DEFAULT_STRATEGY, constraint, fresh_namer(), False)
        assert a is not None and b is not None
        assert a.cost == b.cost
        assert a.cost == encoding_cost(
            a.ancilla_count, a.coupling_density, a.penalty_scale
        )


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------


@pytest.fixture()
def window_candidates():
    """Candidates for at-least-2-of-5 — slack-free genuinely cheaper."""
    c = nck([f"v{i}" for i in range(5)], range(2, 6))
    out = {}
    for name in strategy_names(competing_only=True):
        cand = encode_candidate(name, c, fresh_namer(), False, verify=True)
        assert cand is not None
        out[name] = cand
    return out


class TestSelection:
    def test_auto_keeps_default(self, window_candidates):
        winner, reason = select_candidate(
            list(window_candidates.values()), "auto", False
        )
        assert winner.strategy == DEFAULT_STRATEGY
        assert reason == "default"

    def test_best_takes_cheapest_verified(self, window_candidates):
        ranked = rank_candidates(list(window_candidates.values()))
        winner, reason = select_candidate(
            list(window_candidates.values()), "best", False
        )
        assert winner is ranked[0]
        assert winner.strategy == "slack-free"
        assert "cost" in reason and "saves" in reason

    def test_best_skips_unverified_challengers(self, window_candidates):
        from dataclasses import replace

        rigged = [
            replace(c, verified=False) if c.strategy != DEFAULT_STRATEGY else c
            for c in window_candidates.values()
        ]
        winner, reason = select_candidate(rigged, "best", False)
        assert winner.strategy == DEFAULT_STRATEGY
        assert reason == "default retained"

    def test_forced_takes_named_strategy(self, window_candidates):
        winner, reason = select_candidate(
            list(window_candidates.values()), "slack", False
        )
        assert winner.strategy == "slack"
        assert reason == "forced"

    def test_forced_missing_falls_back(self, window_candidates):
        present = [
            c for c in window_candidates.values() if c.strategy != "slack"
        ]
        winner, reason = select_candidate(present, "slack", False)
        assert winner.strategy == DEFAULT_STRATEGY
        assert reason == "fallback: slack not applicable"


# ---------------------------------------------------------------------------
# Template-store strategy isolation
# ---------------------------------------------------------------------------


class TestStoreStrategyIsolation:
    def setup_method(self):
        self.constraint = nck([f"v{i}" for i in range(4)], range(2, 5))

    def test_distinct_strategies_get_distinct_slots(self, tmp_path):
        store = TemplateStore(tmp_path / "t")
        slack = build_strategy_template(self.constraint, False, "slack")
        free = build_strategy_template(self.constraint, False, "slack-free")
        assert slack is not None and free is not None
        k_slack = template_key(self.constraint, False, "slack")
        k_free = template_key(self.constraint, False, "slack-free")
        assert store.path_for(k_slack) != store.path_for(k_free)
        assert store.store(k_slack, slack)
        assert store.load(k_free) is None, "must not serve another strategy"
        assert store.store(k_free, free)
        assert store.load(k_slack).strategy == "slack"
        assert store.load(k_free).strategy == "slack-free"

    def test_strategy_echo_mismatch_is_a_miss(self, tmp_path):
        store = TemplateStore(tmp_path / "t")
        template = build_strategy_template(self.constraint, False, "slack")
        key = template_key(self.constraint, False, "slack")
        assert store.store(key, template)
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["strategy"] = "slack-free"
        path.write_text(json.dumps(payload))
        assert store.load(key) is None, "tampered strategy echo must be a miss"

    def test_default_key_is_the_penalty_strategy(self):
        legacy = template_key(self.constraint, False)
        explicit = template_key(self.constraint, False, "penalty")
        assert legacy == explicit


# ---------------------------------------------------------------------------
# End-to-end: the inequality family through the portfolio
# ---------------------------------------------------------------------------


@pytest.fixture()
def inequality_instance():
    return RedundantCover.random_satisfiable(6, 6, np.random.default_rng(7))


def program_ancillas(compiled):
    return [v for v in compiled.qubo.variables if v.startswith("_")]


class TestInequalityEndToEnd:
    def test_slack_free_eliminates_slack_on_width2_windows(self):
        """Width-2 windows compile with zero ancillas under slack-free."""
        inst = RedundantCover.random_satisfiable(
            5, 5, np.random.default_rng(3), max_window=2
        )
        env = inst.build_env()
        compiled = env.to_qubo(encoding="slack-free", disk_cache=False)
        assert program_ancillas(compiled) == []
        slack = env.to_qubo(encoding="slack", disk_cache=False)
        assert len(program_ancillas(slack)) > 0

    def test_ancilla_reduction_meets_gate(self, inequality_instance):
        env = inequality_instance.build_env()
        n_slack = len(program_ancillas(env.to_qubo(encoding="slack", disk_cache=False)))
        n_free = len(
            program_ancillas(env.to_qubo(encoding="slack-free", disk_cache=False))
        )
        assert n_slack > 0
        assert (n_slack - n_free) / n_slack >= 0.30

    def test_identical_feasible_optima_across_encodings(self, inequality_instance):
        inst = inequality_instance
        env = inst.build_env()
        solver = ExactQUBOSolver()
        optima = {}
        for mode in ("auto", "slack", "slack-free", "best"):
            compiled = env.to_qubo(encoding=mode, disk_cache=False)
            _, assignment = solver.solve(compiled.qubo)
            sub = {
                inst.var(i): bool(assignment.get(inst.var(i), False))
                for i in range(len(inst.subsets))
            }
            assert inst.verify(sub), f"{mode} ground state violates coverage"
            optima[mode] = inst.objective(sub)
        assert len(set(optima.values())) == 1, f"optima diverge: {optima}"

    def test_certify_proves_hard_dominance(self, inequality_instance):
        env = inequality_instance.build_env()
        for mode in ("slack-free", "best"):
            compiled = env.to_qubo(encoding=mode, disk_cache=False)
            cert = certify_program(env, compiled)
            assert cert.verdict == "pass", f"{mode}: {cert.problems}"
            assert cert.dominance in ("proved", "enumerated-pass")

    def test_decisions_ride_on_program(self, inequality_instance):
        env = inequality_instance.build_env()
        compiled = env.to_qubo(encoding="best", disk_cache=False)
        assert compiled.encoding == "best"
        assert compiled.encoding_decisions
        selected = {d.selected for d in compiled.encoding_decisions}
        assert "slack-free" in selected
        for d in compiled.encoding_decisions:
            assert d.mode == "best"
            assert d.selected_summary is not None
            assert d.describe()
        assert encoding_diagnostics(compiled.encoding_decisions) == []


# ---------------------------------------------------------------------------
# NCK5xx diagnostics
# ---------------------------------------------------------------------------


def summary(strategy, cost, exact=False, verified=True):
    return CandidateSummary(
        strategy=strategy,
        ancillas=0,
        couplings=3,
        density=1.0,
        penalty_scale=2.0,
        cost=cost,
        exact_penalty=exact,
        verified=verified,
        source="synthesized",
    )


def decision(selected, reason, candidates, mode="best", exact_required=False):
    return EncodingDecision(
        constraint_indices=(0,),
        mode=mode,
        selected=selected,
        reason=reason,
        candidates=tuple(candidates),
        exact_required=exact_required,
    )


class TestEncodingDiagnostics:
    def test_clean_decision_yields_nothing(self):
        d = decision(
            "slack-free",
            "cost 8 < 24 (saves 1 ancillas)",
            [summary("penalty", 24.0), summary("slack-free", 8.0)],
        )
        assert encoding_diagnostics([d]) == []

    def test_nck501_unverified_selection(self):
        d = decision(
            "slack",
            "forced",
            [summary("penalty", 8.0), summary("slack", 24.0, verified=None)],
        )
        codes = [x.code for x in encoding_diagnostics([d])]
        assert "NCK501" in codes

    def test_nck502_exactness_degradation(self):
        d = decision(
            "slack-free",
            "cost 8 < 24 (saves 1 ancillas)",
            [
                summary("penalty", 24.0, exact=True),
                summary("slack-free", 8.0, exact=False),
            ],
            exact_required=True,
        )
        codes = [x.code for x in encoding_diagnostics([d])]
        assert codes == ["NCK502"]

    def test_nck502_needs_an_exactness_requirement(self):
        """Hard classes may trade exactness freely — only dominance matters."""
        d = decision(
            "slack-free",
            "cost 8 < 24 (saves 1 ancillas)",
            [
                summary("penalty", 24.0, exact=True),
                summary("slack-free", 8.0, exact=False),
            ],
            exact_required=False,
        )
        assert encoding_diagnostics([d]) == []

    def test_nck503_costlier_forced_win(self):
        d = decision(
            "slack",
            "forced",
            [summary("penalty", 8.0), summary("slack", 24.0)],
        )
        findings = encoding_diagnostics([d])
        codes = [x.code for x in findings]
        assert codes == ["NCK503"]

    def test_default_selection_never_flagged(self):
        d = decision(
            "penalty",
            "default retained",
            [summary("penalty", 8.0, verified=None), summary("slack", 24.0)],
        )
        assert encoding_diagnostics([d]) == []
