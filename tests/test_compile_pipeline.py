"""The staged compiler pipeline: equivalence, provenance, config, CLI.

The pipeline's headline contract is *byte-compatibility*: the same
program compiles to the identical QUBO — same variables, coefficients,
offsets, ancilla names — whether the disk cache is cold, warm, or off.
These tests pin that contract exactly (dict equality, not tolerance),
plus the pass-provenance records, the PipelineConfig validation, the
REPRO_CACHE_DIR environment hook, and the ``python -m repro compile``
subcommand.
"""

import os

import pytest

from repro.__main__ import main
from repro.compile import CACHE_DIR_ENV, PipelineConfig, compile_program
from repro.core import Env


def mixed_env() -> Env:
    """Closed-form, LP, and MILP classes plus soft constraints in one env."""
    env = Env()
    vs = env.register_ports([f"v{i}" for i in range(6)])
    for i in range(5):
        env.nck([vs[i], vs[i + 1]], [1, 2])  # closed-form class
    for v in vs[:4]:
        env.prefer_false(v)  # soft class
    env.nck([vs[0], vs[0], vs[1]], [1])  # repeated-variable MILP classes
    env.nck([vs[2], vs[2], vs[3]], [1])
    env.nck([vs[4], vs[4], vs[5], vs[5]], [2])
    return env


def programs_identical(a, b) -> bool:
    """Exact equality: coefficients, offsets, names — no tolerance."""
    return (
        a.qubo.offset == b.qubo.offset
        and a.qubo.linear == b.qubo.linear
        and a.qubo.quadratic == b.qubo.quadratic
        and a.variables == b.variables
        and a.ancillas == b.ancillas
        and a.hard_scale == b.hard_scale
        and len(a.constraint_qubos) == len(b.constraint_qubos)
        and all(
            x.linear == y.linear and x.quadratic == y.quadratic and x.offset == y.offset
            for x, y in zip(a.constraint_qubos, b.constraint_qubos)
        )
    )


class TestEquivalence:
    """The acceptance-criteria equivalence matrix."""

    def test_disk_cache_on_off_and_warm(self, tmp_path):
        env = mixed_env()
        baseline = compile_program(env)
        cold = compile_program(env, cache_dir=str(tmp_path))
        warm = compile_program(env, cache_dir=str(tmp_path))
        off = compile_program(env, disk_cache=False)
        assert programs_identical(baseline, cold)
        assert programs_identical(baseline, warm)
        assert programs_identical(baseline, off)
        # The warm run really came from disk.
        assert warm.cache_stats["disk_hits"] == warm.cache_stats["templates"]
        assert warm.cache_stats["disk_misses"] == 0
        assert cold.cache_stats["disk_hits"] == 0
        assert cold.cache_stats["disk_misses"] == cold.cache_stats["templates"]


class TestEnvironmentHook:
    def test_cache_dir_env_enables_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        env = mixed_env()
        compiled = compile_program(env)
        assert compiled.cache_stats["disk_enabled"]
        files = list((tmp_path / "templates").glob("*.json"))
        assert len(files) == compiled.cache_stats["templates"]

    def test_disk_cache_false_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        compiled = compile_program(mixed_env(), disk_cache=False)
        assert not compiled.cache_stats["disk_enabled"]
        assert not (tmp_path / "templates").exists()

    def test_disk_tier_off_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        compiled = compile_program(mixed_env())
        assert not compiled.cache_stats["disk_enabled"]


class TestProvenance:
    def test_five_passes_in_order(self):
        """Four passes by default; the opt-in certify post-pass is fifth."""
        passes = ["lint", "canonicalize", "synthesize", "assemble"]
        compiled = compile_program(mixed_env())
        assert [p.name for p in compiled.provenance] == passes
        certified = compile_program(mixed_env(), certify=True)
        assert [p.name for p in certified.provenance] == passes + ["certify"]
        for record in certified.provenance:
            assert record.wall_s >= 0.0
            assert record.describe()

    def test_provenance_details(self):
        env = mixed_env()
        compiled = compile_program(env)
        lint, canon, synth, asm = compiled.provenance
        assert lint.items == env.num_constraints
        assert lint.detail["error"] == 0
        assert canon.items == env.num_constraints
        assert canon.detail["classes"] == compiled.cache_stats["templates"]
        assert synth.items == compiled.cache_stats["templates"]
        assert synth.detail["synthesized"] == compiled.cache_stats["templates"]
        assert asm.detail["ancillas"] == len(compiled.ancillas)
        assert asm.detail["hard_scale"] == compiled.hard_scale


class TestLintPrePass:
    """The program-lint pre-pass (see docs/analysis.md)."""

    @staticmethod
    def unsat_env() -> Env:
        env = Env()
        (a,) = env.register_ports(["a"])
        env.nck([a, a], [1])  # reachable counts {0, 2} never hit {1}
        return env

    def test_errors_abort_with_the_canonicalize_message(self):
        from repro.compile.pipeline import canonicalize
        from repro.core.types import UnsatisfiableError

        with pytest.raises(UnsatisfiableError) as linted:
            compile_program(self.unsat_env())
        with pytest.raises(UnsatisfiableError) as canonical:
            canonicalize(self.unsat_env())
        assert str(linted.value) == str(canonical.value)

    def test_env_to_qubo_threads_the_flag(self):
        """``Env.to_qubo`` aborts through the same pre-pass."""
        from repro.core.types import UnsatisfiableError

        with pytest.raises(UnsatisfiableError) as via_env:
            self.unsat_env().to_qubo()
        with pytest.raises(UnsatisfiableError) as direct:
            compile_program(self.unsat_env())
        assert str(via_env.value) == str(direct.value)

    def test_lint_telemetry_names(self):
        from repro import telemetry

        previous = telemetry.get_recorder()
        try:
            rec = telemetry.enable()
            compile_program(mixed_env())
            assert "compile.lint" in rec.span_names()
            assert rec.counter_value("compile.lint.errors") == 0.0
        finally:
            telemetry.set_recorder(previous)


class TestPipelineConfig:
    def test_bad_hard_scale(self):
        with pytest.raises(ValueError, match="hard_scale must be positive"):
            PipelineConfig(hard_scale=0.0)

    def test_cache_dir_contradicts_disk_cache_off(self, tmp_path):
        with pytest.raises(ValueError, match="cache_dir"):
            compile_program(mixed_env(), cache_dir=str(tmp_path), disk_cache=False)



class TestCompileCLI:
    def test_compile_subcommand_smoke(self, capsys):
        assert main(["compile", "vertex-cover", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "canonicalize" in out and "assemble" in out
        assert "disk tier disabled" in out

    def test_compile_subcommand_with_cache_dir(self, tmp_path, capsys):
        argv = ["compile", "3sat", "--n", "6", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "disk 0 hits" in cold
        assert list(tmp_path.glob("*.json"))
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm

    def test_compile_subcommand_no_disk_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert main(["compile", "max-cut", "--n", "6", "--no-disk-cache"]) == 0
        assert "disk tier disabled" in capsys.readouterr().out
        assert not os.listdir(tmp_path)

    def test_compile_subcommand_rejects_no_cache_with_jobs(self, tmp_path, capsys):
        """Contradictory flags (``--cache-dir`` with ``--no-disk-cache``)
        exit 2 with a message, not a traceback."""
        argv = ["compile", "max-cut", "--n", "6", "--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--no-disk-cache"])
        assert excinfo.value.code == 2
        assert "disk_cache=False" in capsys.readouterr().err
