"""Tests for ASCII plotting and the CLI entry point."""

import pytest

from repro.__main__ import main
from repro.experiments.plotting import ascii_scatter, ascii_series, log_bins


class TestAsciiScatter:
    def test_empty(self):
        assert ascii_scatter({}) == "(no data)"

    def test_single_point(self):
        out = ascii_scatter({"s": [(1.0, 2.0)]})
        assert "o s" in out
        assert "o" in out.splitlines()[0] or any("o" in l for l in out.splitlines())

    def test_two_series_distinct_markers(self):
        out = ascii_scatter({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "o a" in out and "x b" in out

    def test_dimensions(self):
        out = ascii_scatter({"s": [(0, 0), (10, 10)]}, width=40, height=8)
        lines = out.splitlines()
        # 8 grid rows + axis + labels + legend
        assert len(lines) == 8 + 4

    def test_extremes_plotted_at_corners(self):
        out = ascii_scatter({"s": [(0, 0), (1, 1)]}, width=20, height=5)
        lines = out.splitlines()
        assert lines[0].rstrip().endswith("o")  # top-right = (1, 1)

    def test_series_sorts(self):
        out = ascii_series({"s": [(3, 1), (1, 3)]})
        assert "(no data)" not in out


class TestLogBins:
    def test_empty(self):
        assert log_bins([]) == []

    def test_single_value(self):
        assert log_bins([2.0, 2.0]) == [(2.0, 2)]

    def test_counts_sum(self):
        values = [0.001, 0.01, 0.1, 1.0, 10.0]
        bins = log_bins(values, bins=4)
        assert sum(c for _, c in bins) == len(values)

    def test_nonpositive_dropped(self):
        bins = log_bins([-1.0, 0.0, 1.0, 10.0], bins=2)
        assert sum(c for _, c in bins) == 2


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Min. Vert. Cover" in out

    def test_fig11(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "med=" in out

    def test_timing(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "programming" in out and "quantum_execution" in out

    def test_fig12_quick(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "fit: t ≈" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestLintCLI:
    """The ``lint`` subcommand: text/JSON output and 0/1/2 exit codes."""

    def test_program_lint_text(self, capsys):
        assert main(["lint", "vertex-cover", "--n", "8"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_program_lint_json(self, capsys):
        import json

        assert main(["lint", "3sat", "--n", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["summary"]["error"] == 0

    def test_json_envelope_is_schema_stable(self, capsys):
        import json

        argv = ["lint", "vertex-cover", "--n", "8", "--hard-scale", "0.5", "--json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert set(payload) == {"version", "diagnostics", "summary"}
        assert payload["summary"] == {"error": 0, "warning": 1, "info": 0}
        (entry,) = payload["diagnostics"]
        assert set(entry) == {"code", "severity", "message", "source", "object", "hint"}
        assert entry["code"] == "NCK201" and entry["source"] == "program"

    def test_warning_findings_exit_1(self, capsys):
        # An explicit non-dominating hard scale trips NCK201 (warning).
        rc = main(["lint", "vertex-cover", "--n", "8", "--hard-scale", "0.5"])
        assert rc == 1
        assert "NCK201" in capsys.readouterr().out

    def test_severity_gate_hides_warnings_and_exits_0(self, capsys):
        argv = [
            "lint", "vertex-cover", "--n", "8",
            "--hard-scale", "0.5", "--min-severity", "error",
        ]
        assert main(argv) == 0
        assert "clean" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "required: problem" in capsys.readouterr().err


class TestRegistryHelpParity:
    """Regression: --help derives from COMMANDS and must list them all.

    The seed CLI crashed on ``--help`` (argparse %-interpolates help
    strings, and fig7's registry help contains a literal ``%``), so the
    parity assertions below double as the fix's regression test.
    """

    def render_help(self, capsys) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        return capsys.readouterr().out

    def test_help_lists_every_registered_command(self, capsys):
        from repro.__main__ import COMMANDS

        out = self.render_help(capsys)
        for cmd in COMMANDS:
            assert f"\n    {cmd.name} " in out or f" {cmd.name}\n" in out, cmd.name
        assert "lint" in out
        assert "% optimal" in out  # the literal percent renders unmangled

    def test_serve_is_registered_with_full_parity(self, capsys):
        """``serve`` must be in the registry, --help, and the docstring."""
        import repro.__main__ as cli

        serve = next(c for c in cli.COMMANDS if c.name == "serve")
        assert serve.artifact is False  # not part of trace/all rosters
        assert serve.configure is not None
        assert "serve" in self.render_help(capsys)
        assert "python -m repro serve" in cli.__doc__

    def test_serve_subparser_exposes_workload_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--requests", "--tenants", "--workers", "--mode", "--rate"):
            assert flag in out, flag

    def test_module_docstring_usage_block_lists_every_command(self):
        import repro.__main__ as cli

        usage = cli.__doc__
        for cmd in cli.COMMANDS:
            assert f" {cmd.name}" in usage, cmd.name


class TestReportSections:
    """The report generator's cheap sections (full runs live in the CLI)."""

    def test_header_mentions_configuration(self):
        from repro.experiments.report import _header

        text = _header(7, full=False)
        assert "seed: 7" in text and "quick" in text

    def test_table1_section(self):
        from repro.experiments.report import _section_table1

        text = _section_table1()
        assert text.startswith("## Table I")
        assert "Min. Vert. Cover" in text

    def test_fig11_section(self):
        from repro.experiments.report import _section_fig11

        text = _section_fig11()
        assert "Figure 11" in text and "med" in text

    def test_fig12_section_quick(self):
        from repro.experiments.report import _section_fig12

        text = _section_fig12(full=False)
        assert "fit: t ≈" in text

    def test_timing_section(self):
        from repro.experiments.report import _section_timing

        text = _section_timing()
        assert "D-Wave job" in text and "IBM QAOA" in text
