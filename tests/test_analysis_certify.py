"""The compositional certification engine.

Covers the proof core (interval combination, enumeration fallback),
agreement with the exhaustive verifier on everything small enough to
enumerate (hypothesis), adversarial corruption beyond the enumeration
cap (where certificates are the *only* checker that can run),
serialization + offline recheck, the compiler post-pass, the runtime
cross-check, and the CLI.  The on-disk certificate store is covered with
the template store in ``tests/test_compile_store.py``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import (
    CERTIFY_RULES,
    CertificationError,
    ProgramCertificate,
    certificate_diagnostics,
    certify_program,
    check_energy,
    recheck_certificate,
)
from repro.analysis.certify import qubo_fingerprint
from repro.compile import compile_program
from repro.compile.validate import (
    MAX_VALIDATION_VARIABLES,
    ProgramValidationError,
    ValidationCapExceeded,
    verify_compiled_program,
)
from repro.core import Env, UnsatisfiableError
from repro.qubo import QUBO


def mvc_env(n: int = 5) -> Env:
    """Minimum vertex cover on an ``n``-cycle: n hard + n soft."""
    env = Env()
    names = [f"v{i}" for i in range(n)]
    for i in range(n):
        env.nck([names[i], names[(i + 1) % n]], [1, 2])
    for name in names:
        env.prefer_false(name)
    return env


def big_env() -> Env:
    """A program beyond the exhaustive verifier's enumeration cap."""
    env = mvc_env(24)
    assert len(env.variables) > MAX_VALIDATION_VARIABLES
    return env


def resum(program) -> None:
    """Rebuild ``program.qubo`` from its per-constraint QUBOs."""
    total = QUBO()
    for qubo in program.constraint_qubos:
        total += qubo
    program.qubo = total.pruned()


def error_codes(diags) -> set[str]:
    return {d.code for d in diags if str(d.severity) == "error"}


class TestProofCore:
    def test_small_program_fully_proved(self):
        env = mvc_env(5)
        program = compile_program(env)
        cert = certify_program(env, program)
        assert cert.verdict == "pass"
        assert cert.dominance == "proved"
        assert cert.soft_fidelity == "exact"
        assert cert.fallback is None  # pure compositional proof
        assert cert.margin == pytest.approx(1.0)
        assert certificate_diagnostics(cert) == []

    def test_feasible_band_is_soft_counting(self):
        env = mvc_env(5)
        cert = certify_program(env, compile_program(env))
        # Hard-feasible energies count violated softs: 0 … num_soft.
        assert cert.feasible_lo == pytest.approx(0.0)
        assert cert.feasible_hi == pytest.approx(5.0)
        assert cert.infeasible_lo == pytest.approx(6.0)  # hard_scale × GAP

    def test_all_soft_program_is_vacuous(self):
        env = Env()
        env.prefer_false("a")
        env.prefer_true("b")
        cert = certify_program(env, compile_program(env))
        assert cert.verdict == "pass"
        assert cert.dominance == "vacuous"
        assert cert.margin is None

    def test_beyond_enumeration_cap_still_proves(self):
        env = big_env()
        program = compile_program(env)
        assert len(program.all_variables) > MAX_VALIDATION_VARIABLES
        with pytest.raises(ValidationCapExceeded):
            verify_compiled_program(env, program)
        cert = certify_program(env, program)
        assert cert.verdict == "pass"
        assert cert.dominance == "proved"
        assert cert.fallback is None

    def test_dropped_soft_constraint_certified(self):
        env = Env()
        env.nck(["a", "b"], [1, 2])
        env.nck(["a", "a"], [1], soft=True)  # unsatisfiable soft: dropped
        env.prefer_false("a")
        cert = certify_program(env, compile_program(env))
        assert cert.verdict == "pass"
        dropped = [c for c in cert.constraints if c.method == "dropped"]
        assert len(dropped) == 1 and dropped[0].soft

    def test_rule_registry(self):
        assert set(CERTIFY_RULES) == {
            "NCK401", "NCK402", "NCK403", "NCK404", "NCK405",
        }


@st.composite
def program_envs(draw):
    """Random NchooseK programs mirroring the randomized-audit shapes."""
    num_names = draw(st.integers(min_value=2, max_value=5))
    names = [f"v{i}" for i in range(num_names)]
    env = Env()
    num_constraints = draw(st.integers(min_value=1, max_value=4))
    for _ in range(num_constraints):
        size = draw(st.integers(min_value=1, max_value=min(3, num_names)))
        idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_names - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        coll = [names[i] for i in idx]
        if draw(st.booleans()):
            coll.append(coll[0])  # repeated variable (multiset)
        card = len(coll)
        selection = draw(
            st.sets(
                st.integers(min_value=0, max_value=card),
                min_size=1, max_size=card + 1,
            )
        )
        env.nck(coll, sorted(selection), soft=draw(st.booleans()))
    return env


class TestAgreementWithExhaustive:
    """Zero divergence wherever both checkers can run."""

    @given(env=program_envs())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_agree(self, env):
        try:
            program = compile_program(env)
        except UnsatisfiableError:
            assume(False)
        assume(len(program.all_variables) <= MAX_VALIDATION_VARIABLES)
        try:
            verify_compiled_program(env, program)
            exhaustive_ok = True
        except ProgramValidationError:
            exhaustive_ok = False
        cert = certify_program(env, program)
        assert (cert.verdict == "pass") == exhaustive_ok, (
            cert.dominance, cert.soft_fidelity, cert.fallback_error
        )
        # Soundness: a pure compositional pass never contradicts the
        # exhaustive ground truth.
        if cert.fallback is None and cert.verdict == "pass":
            assert exhaustive_ok

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_programs_agree(self, seed):
        rng = np.random.default_rng(seed)
        env = mvc_env(4)
        program = compile_program(env)
        # Corrupt one per-constraint QUBO coherently (re-summed), so the
        # certificates face a self-consistent but wrong artifact.
        index = int(rng.integers(0, len(program.constraint_qubos)))
        program.constraint_qubos[index] = program.constraint_qubos[index] * float(
            rng.uniform(0.01, 0.2)
        )
        resum(program)
        try:
            verify_compiled_program(env, program)
            exhaustive_ok = True
        except ProgramValidationError:
            exhaustive_ok = False
        cert = certify_program(env, program)
        assert (cert.verdict == "pass") == exhaustive_ok


class TestAdversarialBeyondTheCap:
    """Tampering at sizes only the certificates can check."""

    def test_weakened_hard_constraint_caught(self):
        env = big_env()
        program = compile_program(env)
        hard_index = next(
            i for i, c in enumerate(env.constraints) if not c.soft
        )
        program.constraint_qubos[hard_index] = (
            program.constraint_qubos[hard_index] * 0.02
        )
        resum(program)
        cert = certify_program(env, program)
        assert cert.verdict == "fail"
        assert "NCK401" in error_codes(certificate_diagnostics(cert))

    def test_tampered_program_qubo_caught(self):
        env = big_env()
        program = compile_program(env)
        program.qubo += QUBO({"v0": -50.0})
        cert = certify_program(env, program)
        assert cert.verdict == "fail"
        assert "NCK403" in error_codes(certificate_diagnostics(cert))

    def test_tampered_soft_penalty_caught(self):
        env = big_env()
        program = compile_program(env)
        soft_index = next(i for i, c in enumerate(env.constraints) if c.soft)
        program.constraint_qubos[soft_index] = (
            program.constraint_qubos[soft_index] * 3.0
        )
        resum(program)
        cert = certify_program(env, program)
        assert cert.verdict == "fail"
        codes = error_codes(certificate_diagnostics(cert))
        assert codes & {"NCK401", "NCK402"}


class TestSerialization:
    def test_json_roundtrip(self):
        env = mvc_env(5)
        cert = certify_program(env, compile_program(env))
        restored = ProgramCertificate.from_json(cert.to_json())
        assert restored == cert

    def test_unknown_schema_rejected(self):
        env = mvc_env(4)
        cert = certify_program(env, compile_program(env))
        data = cert.to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            ProgramCertificate.from_dict(data)

    def test_recheck_clean_roundtrip(self):
        env = mvc_env(5)
        program = compile_program(env)
        cert = certify_program(env, program)
        restored = ProgramCertificate.from_json(cert.to_json())
        assert recheck_certificate(program, restored) == []

    def test_recheck_flags_wrong_program(self):
        cert = certify_program(mvc_env(5), compile_program(mvc_env(5)))
        other = compile_program(mvc_env(4))
        diags = recheck_certificate(other, cert)
        assert "NCK404" in error_codes(diags)

    def test_recheck_flags_post_hoc_tampering(self):
        env = mvc_env(5)
        program = compile_program(env)
        cert = certify_program(env, program)
        program.qubo += QUBO({"v0": -1.0})  # tampered after certification
        diags = recheck_certificate(program, cert)
        assert "NCK404" in error_codes(diags)

    def test_fingerprint_is_canonical(self):
        a = QUBO({"x": 1.0}, {("x", "y"): -2.0}, offset=0.5)
        b = QUBO({"x": 1.0 + 1e-13}, {("x", "y"): -2.0}, offset=0.5)
        assert qubo_fingerprint(a) == qubo_fingerprint(b)
        assert qubo_fingerprint(a) != qubo_fingerprint(a * 2.0)


class TestPipelinePass:
    def test_certify_pass_attaches_certificate(self):
        env = mvc_env(5)
        program = compile_program(env, certify=True)
        assert program.certificate is not None
        assert program.certificate.verdict == "pass"
        assert program.provenance[-1].name == "certify"
        assert program.provenance[-1].detail["verdict"] == "pass"

    def test_default_compile_has_no_certificate(self):
        program = compile_program(mvc_env(4))
        assert program.certificate is None
        assert all(p.name != "certify" for p in program.provenance)

    def test_failing_verdict_raises(self):
        env = mvc_env(5)
        # hard_scale 1 cannot dominate 5 soft units; the post-pass must
        # refuse to hand back the artifact.
        with pytest.raises(CertificationError):
            compile_program(env, hard_scale=1.0, certify=True)

    def test_env_to_qubo_forwards_certify(self):
        env = mvc_env(4)
        program = env.to_qubo(certify=True)
        assert program.certificate is not None

    def test_certified_output_is_byte_identical(self):
        env = mvc_env(5)
        plain = compile_program(env)
        certified = compile_program(env, certify=True)
        assert plain.qubo == certified.qubo
        assert plain.variables == certified.variables
        assert plain.ancillas == certified.ancillas


class TestCheckEnergy:
    def setup_method(self):
        env = mvc_env(5)
        self.cert = certify_program(env, compile_program(env))

    def test_feasible_band_is_consistent(self):
        assert check_energy(self.cert, 0.0) == "consistent"
        assert check_energy(self.cert, 3.0) == "consistent"

    def test_proven_infeasible_band_flagged(self):
        assert check_energy(self.cert, 6.0) == "in-proven-infeasible-band"
        assert check_energy(self.cert, 50.0) == "in-proven-infeasible-band"

    def test_below_floor_flagged(self):
        assert check_energy(self.cert, -1.0) == "below-certified-floor"

    def test_non_pass_certificates_are_uncertified(self):
        from dataclasses import replace

        inconclusive = replace(self.cert, verdict="inconclusive")
        assert check_energy(inconclusive, 50.0) == "uncertified"


class TestRuntimeCrossCheck:
    def test_consistent_solution_annotated(self):
        from repro.runtime import solve

        result = solve(
            mvc_env(5),
            backends="classical",
            compile_kwargs={"certify": True},
            seed=7,
        )
        ok = [a for a in result.attempts if a.status == "ok"]
        assert ok and all(
            a.metadata.get("certificate") == "consistent" for a in ok
        )

    def test_uncertified_run_has_no_annotation(self):
        from repro.runtime import solve

        result = solve(mvc_env(5), backends="classical", seed=7)
        ok = [a for a in result.attempts if a.status == "ok"]
        assert ok and all("certificate" not in a.metadata for a in ok)


class TestCLI:
    def run_cli(self, *argv):
        import contextlib
        import io

        from repro.__main__ import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse paths
                code = exc.code
        return code, out.getvalue()

    def test_certify_pass_text(self):
        code, out = self.run_cli("certify", "vertex-cover", "--n", "24")
        assert code == 0
        assert "PASS" in out and "dominance proved" in out
        assert "beyond the enumeration cap" in out  # cross-check line

    def test_certify_small_cross_checks(self):
        code, out = self.run_cli("certify", "vertex-cover", "--n", "6")
        assert code == 0
        assert "exhaustive enumeration agrees" in out

    def test_certify_json_envelope(self):
        code, out = self.run_cli("certify", "3sat", "--n", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["certificate"]["schema"] == 1
        assert payload["diagnostics"] == []

    def test_certify_out_writes_certificate(self, tmp_path):
        target = tmp_path / "cert.json"
        code, _ = self.run_cli(
            "certify", "max-cut", "--n", "8", "--out", str(target)
        )
        assert code == 0
        restored = ProgramCertificate.from_json(target.read_text())
        assert restored.verdict == "pass"

    def test_certify_rejects_bad_hard_scale(self, capsys):
        code, _ = self.run_cli("certify", "vertex-cover", "--hard-scale", "-1")
        assert code == 2
        assert "error" in capsys.readouterr().err
