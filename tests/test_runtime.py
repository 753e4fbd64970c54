"""Tests for the portfolio runtime: strategies, seeds, provenance, CLI."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import Env
from repro.core.solution import SampleSet, Solution
from repro.core.types import UnsatisfiableError
from repro.runtime import (
    AnnealingBackend,
    PortfolioError,
    PortfolioPolicy,
    get_strategy,
    make_backend,
    resolve_backends,
    solve,
)


def two_var_env() -> Env:
    """hard: at least one of a, b; soft: prefer each FALSE."""
    env = Env()
    env.nck(["a", "b"], [1, 2])
    env.nck(["a"], [0], soft=True)
    env.nck(["b"], [0], soft=True)
    return env


VALID = {"a": True, "b": False}  # soft 1/2
VALID_WORSE = {"a": True, "b": True}  # soft 0/2
INVALID = {"a": False, "b": False}  # violates the hard constraint


class StubBackend:
    """Scriptable backend: per-attempt outcomes, delays, RNG logging."""

    def __init__(
        self,
        name,
        *,
        script=("valid",),
        delay=0.0,
        assignment=None,
        deterministic=False,
        rng_log=None,
    ):
        self.name = name
        self.script = script
        self.delay = delay
        self.assignment = assignment or VALID
        self.deterministic = deterministic
        self.rng_log = rng_log
        self.calls = 0
        self._cancel = threading.Event()

    def cancel(self):
        self._cancel.set()

    def _sleep(self, seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if self._cancel.is_set():
                return
            time.sleep(0.005)

    def sample(self, env, *, rng=None, program=None):
        action = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if self.rng_log is not None and rng is not None:
            self.rng_log.append(int(rng.integers(0, 2**31)))
        self._sleep(self.delay)
        if action == "hang":
            self._sleep(10.0)
            raise RuntimeError("hung backend was never cancelled")
        if action == "error":
            raise RuntimeError("synthetic backend failure")
        assignment = self.assignment if action == "valid" else INVALID
        sol = Solution.from_assignment(env, assignment, backend=self.name)
        return SampleSet(solutions=[sol], backend=self.name)


class TestStrategies:
    def test_race_first_valid_wins_and_losers_cancelled(self):
        fast = StubBackend("fast", delay=0.01)
        slow = StubBackend("slow", delay=5.0)
        t0 = time.perf_counter()
        result = solve(two_var_env(), backends=[fast, slow], strategy="race", seed=1)
        assert time.perf_counter() - t0 < 2.0
        assert result.winner == "fast"
        assert result.strategy == "race"
        statuses = {a.backend: a.status for a in result.attempts}
        assert statuses == {"fast": "ok", "slow": "cancelled"}

    def test_ensemble_merges_and_keeps_best(self):
        worse = StubBackend("worse", assignment=VALID_WORSE)
        better = StubBackend("better", assignment=VALID, delay=0.02)
        result = solve(
            two_var_env(), backends=[worse, better], strategy="ensemble", seed=1
        )
        assert result.winner == "better"
        assert result.solution.soft_satisfied == 1
        assert len(result.candidates) == 2
        assert all(a.status == "ok" for a in result.attempts)

    def test_fallback_runs_in_order_and_skips_failing(self):
        bad = StubBackend("bad", script=("error",))
        good = StubBackend("good")
        result = solve(
            two_var_env(), backends=[bad, good], strategy="fallback", seed=1
        )
        assert result.winner == "good"
        assert [(a.backend, a.status) for a in result.attempts] == [
            ("bad", "error"),
            ("good", "ok"),
        ]
        assert result.attempts[0].error is not None

    def test_fallback_never_launches_later_backends_on_success(self):
        first = StubBackend("first")
        second = StubBackend("second")
        solve(two_var_env(), backends=[first, second], strategy="fallback", seed=1)
        assert second.calls == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("tournament")


class TestSeeding:
    def test_per_backend_streams_are_independent_and_reproducible(self):
        logs = {}

        def run():
            logs["a"], logs["b"] = [], []
            a = StubBackend("a", rng_log=logs["a"])
            b = StubBackend("b", rng_log=logs["b"])
            solve(two_var_env(), backends=[a, b], strategy="ensemble", seed=42)
            return list(logs["a"]), list(logs["b"])

        first_a, first_b = run()
        second_a, second_b = run()
        assert first_a == second_a and first_b == second_b  # reproducible
        assert first_a != first_b  # no shared stream

    def test_race_is_deterministic_under_a_fixed_seed(self):
        def run():
            fast = StubBackend("fast", delay=0.01)
            slow = StubBackend("slow", delay=1.0)
            return solve(
                two_var_env(), backends=[fast, slow], strategy="race", seed=7
            )

        first, second = run(), run()
        assert first.winner == second.winner == "fast"
        assert first.solution.assignment == second.solution.assignment
        assert [a.status for a in first.attempts] == [
            a.status for a in second.attempts
        ]

    def test_retry_attempts_get_fresh_streams(self):
        log = []
        flaky = StubBackend("flaky", script=("invalid", "valid"), rng_log=log)
        policy = PortfolioPolicy.with_timeout(None, retries=3)
        solve(two_var_env(), backends=[flaky], strategy="race", policy=policy)
        assert len(log) == 2 and log[0] != log[1]


class TestBackendsAndInputs:
    def test_solve_accepts_problem_instances(self):
        from repro.problems import MinVertexCover, circulant_graph

        result = solve(
            MinVertexCover(circulant_graph(6)),
            backends=["classical"],
            strategy="fallback",
            seed=3,
        )
        assert result.solution.all_hard_satisfied
        assert result.winner == "classical-exact"

    def test_real_devices_satisfy_the_protocol(self):
        from repro.annealing.device import AnnealingDevice, AnnealingDeviceProfile

        device = AnnealingDevice(AnnealingDeviceProfile.small_test(4))
        backend = AnnealingBackend(device, num_reads=10)
        result = solve(
            two_var_env(), backends=["classical", backend], strategy="ensemble", seed=5
        )
        assert {a.backend for a in result.attempts} == {
            "classical-exact",
            "pegasus-p4-test",
        }
        assert result.solution.all_hard_satisfied

    def test_backend_spec_parsing(self):
        assert make_backend("classical").name == "classical-exact"
        assert [b.name for b in resolve_backends("classical")] == ["classical-exact"]
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum-telepathy")
        with pytest.raises(ValueError, match="unique"):
            resolve_backends(["classical", "exact"])
        with pytest.raises(ValueError, match="at least one"):
            resolve_backends([])

    def test_policy_and_shorthands_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            solve(
                two_var_env(),
                backends=["classical"],
                policy=PortfolioPolicy(),
                timeout=1.0,
            )

    def test_unsatisfiable_propagates(self):
        env = Env()
        env.nck(["a"], [0])
        env.nck(["a"], [1])
        with pytest.raises(UnsatisfiableError):
            solve(env, backends=["classical"], strategy="race")

    def test_all_failing_without_degradation_raises_portfolio_error(self):
        bad = StubBackend("bad", script=("error",))
        policy = PortfolioPolicy(degrade_to_classical=False)
        with pytest.raises(PortfolioError) as excinfo:
            solve(two_var_env(), backends=[bad], strategy="race", policy=policy)
        assert [a.status for a in excinfo.value.attempts] == ["error"]


class TestProvenanceAndTelemetry:
    def test_solution_metadata_carries_provenance(self):
        result = solve(two_var_env(), backends=["classical"], seed=9)
        prov = result.solution.metadata["portfolio"]
        assert prov["winner"] == "classical-exact"
        assert prov["strategy"] == "race"
        assert prov["seed"] == 9
        assert prov["attempts"] == result.num_attempts

    def test_summary_mentions_every_attempt(self):
        fast = StubBackend("fast", delay=0.01)
        slow = StubBackend("slow", delay=5.0)
        result = solve(two_var_env(), backends=[fast, slow], strategy="race", seed=1)
        text = result.summary()
        assert "winner   fast" in text
        assert "slow" in text and "cancelled" in text

    def test_portfolio_section_appears_in_telemetry_report(self):
        rec = telemetry.enable()
        try:
            solve(two_var_env(), backends=["classical"], seed=2)
            report = telemetry.render_report()
        finally:
            telemetry.disable()
        assert "portfolio runtime" in report
        assert rec.counter_value("runtime.attempts") == 1
        assert "wins by backend          classical-exact 1" in report

    def test_portfolio_section_absent_without_runtime_activity(self):
        rec = telemetry.enable()
        try:
            assert telemetry.portfolio_section(rec) is None
            report = telemetry.render_report()
        finally:
            telemetry.disable()
        assert "portfolio runtime" not in report


class TestCLI:
    def test_solve_subcommand(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "solve",
                    "vertex-cover",
                    "--n",
                    "6",
                    "--backends",
                    "classical",
                    "--strategy",
                    "fallback",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "winner   classical-exact" in out
        assert "verified True" in out

    def test_solve_subcommand_every_problem(self, capsys):
        from repro.__main__ import SOLVE_PROBLEMS, main

        for problem in SOLVE_PROBLEMS:
            assert (
                main(
                    [
                        "solve",
                        problem,
                        "--n",
                        "5",
                        "--backends",
                        "classical",
                        "--strategy",
                        "fallback",
                    ]
                )
                == 0
            )
            assert "winner   classical-exact" in capsys.readouterr().out

    def test_artifacts_derived_from_registry(self):
        from repro.__main__ import ARTIFACTS, COMMANDS

        assert ARTIFACTS == [c.name for c in COMMANDS if c.artifact]
        assert "solve" not in ARTIFACTS
        assert "table1" in ARTIFACTS

    @pytest.mark.slow
    def test_solve_subcommand_with_annealer(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "solve",
                    "vertex-cover",
                    "--n",
                    "6",
                    "--num-reads",
                    "25",
                    "--timeout",
                    "120",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "winner" in out and "verified True" in out
