"""Tests for repro.telemetry: recorder semantics, exporters, integration.

The integration tests double as the contract for the canonical
span/metric names documented in docs/observability.md — renaming an
instrumentation point is an interface change and must update both.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core.env import Env
from repro.telemetry import (
    KNOWN_SPAN_PREFIXES,
    HistogramStat,
    NullRecorder,
    TelemetryRecorder,
    is_canonical_name,
)


@pytest.fixture(autouse=True)
def _isolated_recorder():
    """Give every test a clean global recorder; restore disabled after."""
    previous = telemetry.get_recorder()
    telemetry.disable()
    yield
    telemetry.set_recorder(previous)


def _cycle_cover_env() -> Env:
    """Min vertex cover on a 4-cycle: 4 hard + 4 soft constraints."""
    env = Env()
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    for u, v in edges:
        env.nck([u, v], [1, 2])
    for v in ("a", "b", "c", "d"):
        env.nck([v], [0], soft=True)
    return env


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_records_path_parent_depth(self):
        rec = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                with telemetry.span("leaf"):
                    pass
        # inner spans close (and record) first
        assert rec.span_paths() == ["outer/inner/leaf", "outer/inner", "outer"]
        by_path = {s.path: s for s in rec.spans}
        assert by_path["outer"].parent is None and by_path["outer"].depth == 0
        assert by_path["outer/inner"].parent == "outer"
        assert by_path["outer/inner/leaf"].depth == 2

    def test_sequential_spans_are_both_roots(self):
        rec = telemetry.enable()
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            pass
        assert all(s.parent is None for s in rec.spans)

    def test_attributes_at_entry_and_via_set(self):
        rec = telemetry.enable()
        with telemetry.span("work", size=3) as sp:
            sp.set(outcome="ok", size=4)
        (span,) = rec.spans
        assert span.attributes == {"size": 4, "outcome": "ok"}

    def test_exception_tags_error_and_propagates(self):
        rec = telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("broken"):
                raise ValueError("boom")
        (span,) = rec.spans
        assert span.attributes["error"] == "ValueError"
        # the stack unwound: a new span is a root again
        with telemetry.span("after"):
            pass
        assert rec.spans[-1].depth == 0

    def test_timings_are_nonnegative_and_ordered(self):
        rec = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                sum(range(1000))
        by_name = {s.name: s for s in rec.spans}
        assert by_name["inner"].wall_s >= 0.0
        assert by_name["outer"].wall_s >= by_name["inner"].wall_s
        assert by_name["outer"].cpu_s >= 0.0

    def test_current_span_tracks_innermost(self):
        telemetry.enable()
        assert telemetry.current_span() is None
        with telemetry.span("outer"):
            assert telemetry.current_span().name == "outer"
            with telemetry.span("inner") as sp:
                assert telemetry.current_span() is sp
            assert telemetry.current_span().name == "outer"
        assert telemetry.current_span() is None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        rec = telemetry.enable()
        telemetry.count("events")
        telemetry.count("events", 2.5)
        assert rec.counter_value("events") == 3.5
        assert rec.counter_value("never-touched") == 0.0

    def test_gauge_last_write_wins(self):
        rec = telemetry.enable()
        telemetry.gauge("qubits", 10)
        telemetry.gauge("qubits", 7)
        assert rec.gauges["qubits"].value == 7
        assert rec.gauges["qubits"].updates == 2

    def test_histogram_summary_math(self):
        rec = telemetry.enable()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for v in values:
            telemetry.observe("lengths", v)
        h = rec.histograms["lengths"]
        assert h.count == len(values)
        assert h.total == sum(values)
        assert (h.min, h.max) == (2.0, 9.0)
        assert h.mean == pytest.approx(5.0)
        assert h.stddev == pytest.approx(2.0)  # classic textbook set

    def test_histogram_degenerate_cases(self):
        h = HistogramStat()
        assert h.mean == 0.0 and h.stddev == 0.0
        h.add(3.0)
        assert h.mean == 3.0 and h.stddev == 0.0  # <2 observations

    def test_reset_clears_everything(self):
        rec = telemetry.enable()
        with telemetry.span("s"):
            telemetry.count("c")
            telemetry.gauge("g", 1)
            telemetry.observe("h", 1.0)
        rec.reset()
        assert not rec.spans and not rec.counters
        assert not rec.gauges and not rec.histograms


# ---------------------------------------------------------------------------
# Thread safety
# ---------------------------------------------------------------------------


class TestThreadSafety:
    def test_concurrent_counters_do_not_lose_increments(self):
        rec = telemetry.enable()
        n_threads, n_incr = 8, 2000

        def hammer():
            for _ in range(n_incr):
                telemetry.count("shared")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter_value("shared") == n_threads * n_incr

    def test_span_stacks_are_per_thread(self):
        rec = telemetry.enable()
        barrier = threading.Barrier(4)

        def worker(i):
            with telemetry.span(f"worker{i}"):
                barrier.wait()  # all four spans live simultaneously
                with telemetry.span("child"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every child parented to its own thread's root, never a sibling's
        children = [s for s in rec.spans if s.name == "child"]
        assert sorted(s.parent for s in children) == [f"worker{i}" for i in range(4)]
        assert all(s.depth == 1 for s in children)


# ---------------------------------------------------------------------------
# Disabled mode
# ---------------------------------------------------------------------------


class TestDisabled:
    def test_disabled_records_nothing(self):
        assert not telemetry.enabled()
        assert isinstance(telemetry.get_recorder(), NullRecorder)
        with telemetry.span("ignored", size=1) as sp:
            sp.set(more=2)
            telemetry.count("ignored")
            telemetry.gauge("ignored", 1)
            telemetry.observe("ignored", 1.0)
        assert telemetry.current_span() is None

    def test_null_span_is_shared_singleton(self):
        a = telemetry.span("x")
        b = telemetry.span("y")
        assert a is b  # no allocation on the disabled path

    def test_enable_disable_roundtrip(self):
        rec = telemetry.enable()
        assert telemetry.enabled() and telemetry.get_recorder() is rec
        telemetry.disable()
        assert not telemetry.enabled()
        # re-enabling with an explicit recorder reuses it
        rec2 = TelemetryRecorder()
        assert telemetry.enable(rec2) is rec2
        assert telemetry.get_recorder() is rec2

    def test_disabled_pipeline_still_computes(self):
        env = _cycle_cover_env()
        solution = env.solve()
        assert solution.all_hard_satisfied
        assert isinstance(telemetry.get_recorder(), NullRecorder)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def _populate(self):
        rec = telemetry.enable()
        with telemetry.span("compile.program", constraints=2):
            with telemetry.span("compile.synthesize"):
                pass
        telemetry.count("compile.cache.hits", 3)
        telemetry.count("compile.cache.misses", 1)
        telemetry.gauge("compile.cache.templates", 1)
        telemetry.observe("anneal.embed.chain_length", 2.0)
        telemetry.observe("anneal.embed.chain_length", 4.0)
        return rec

    def test_jsonl_lines_are_valid_json(self):
        self._populate()
        lines = telemetry.to_jsonl().strip().splitlines()
        objs = [json.loads(line) for line in lines]
        assert {o["type"] for o in objs} == {"span", "counter", "gauge", "histogram"}

    def test_jsonl_exact_round_trip(self):
        self._populate()
        text = telemetry.to_jsonl()
        clone = telemetry.read_jsonl(text)
        assert clone.counter_value("compile.cache.hits") == 3.0
        assert clone.histograms["anneal.embed.chain_length"].mean == 3.0
        assert [s.path for s in clone.spans] == [
            "compile.program/compile.synthesize",
            "compile.program",
        ]
        assert telemetry.to_jsonl(clone) == text

    def test_write_jsonl_to_file(self, tmp_path):
        self._populate()
        out = tmp_path / "events.jsonl"
        telemetry.write_jsonl(out)
        clone = telemetry.read_jsonl(out.read_text())
        assert clone.counter_value("compile.cache.misses") == 1.0

    def test_to_jsonl_raises_when_disabled(self):
        with pytest.raises(RuntimeError):
            telemetry.to_jsonl()

    def test_report_headline_always_has_four_lines(self):
        self._populate()
        report = telemetry.render_report()
        for needle in (
            "compile cache hit rate",
            "embedding attempts",
            "anneal sweep time",
            "QAOA iterations",
        ):
            assert needle in report
        assert "75.0%" in report  # 3 hits / 1 miss
        assert "compile.program" in report
        assert "compile.synthesize" in report


# ---------------------------------------------------------------------------
# Pipeline integration: the documented canonical names are emitted
# ---------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_compile_and_classical_names(self):
        rec = telemetry.enable()
        env = _cycle_cover_env()
        env.to_qubo()
        env.solve()
        names = rec.span_names()
        assert {"compile.program", "compile.synthesize", "classical.solve"} <= names
        assert rec.counter_value("compile.programs") >= 1
        assert (
            rec.counter_value("compile.cache.hits")
            + rec.counter_value("compile.cache.misses")
            > 0
        )
        assert rec.counter_value("classical.bnb.nodes") > 0
        # per-program attributes land on the compile span
        prog = next(s for s in rec.spans if s.name == "compile.program")
        assert prog.attributes["constraints"] == 8

    def test_annealing_job_names(self):
        from repro.annealing.device import AnnealingDevice, AnnealingDeviceProfile

        rec = telemetry.enable()
        device = AnnealingDevice(AnnealingDeviceProfile.small_test(m=4, noiseless=True))
        result = device.sample(
            _cycle_cover_env(), num_reads=8, rng=np.random.default_rng(0)
        )
        assert result.best.all_hard_satisfied
        names = rec.span_names()
        assert {"anneal.job", "anneal.embed", "compile.program"} <= names
        assert rec.counter_value("anneal.jobs") == 1
        assert rec.counter_value("anneal.embed.attempts") >= 1
        assert rec.counter_value("anneal.sweeps") > 0
        assert rec.histograms["anneal.sweep_seconds"].count >= 1
        assert rec.histograms["anneal.embed.chain_length"].count > 0
        # nesting: embed + compile happen inside the job span
        embed = next(s for s in rec.spans if s.name == "anneal.embed")
        assert embed.parent == "anneal.job"

    def test_circuit_job_names(self):
        from repro.circuit.device import CircuitDevice

        rec = telemetry.enable()
        device = CircuitDevice(qaoa_maxiter=4)
        env = Env()
        env.nck(["a", "b"], [1])
        result = device.sample(env, rng=np.random.default_rng(0))
        assert result.best.all_hard_satisfied
        names = rec.span_names()
        assert {"circuit.job", "circuit.transpile", "circuit.qaoa"} <= names
        assert rec.counter_value("circuit.jobs") == 1
        assert rec.counter_value("circuit.qaoa.iterations") > 0
        assert rec.histograms["circuit.depth"].count >= 1
        job = next(s for s in rec.spans if s.name == "circuit.job")
        assert job.attributes["execution_model"] == "exact"
        report = telemetry.render_report()
        assert "QAOA iterations" in report


class TestTelemetryNamingRegistry:
    def test_known_prefixes(self):
        assert KNOWN_SPAN_PREFIXES == {
            "compile", "anneal", "circuit", "classical", "runtime",
            "service", "experiments", "analysis",
        }

    @pytest.mark.parametrize(
        "name", ["compile.program", "anneal.embed.attempts", "runtime.solve"]
    )
    def test_canonical_names(self, name):
        assert is_canonical_name(name)

    @pytest.mark.parametrize(
        "name", ["compile", "Compile.program", "warp.drive", "compile..x", ""]
    )
    def test_non_canonical_names(self, name):
        assert not is_canonical_name(name)
