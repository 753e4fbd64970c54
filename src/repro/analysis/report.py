"""Rendering diagnostics as text or JSON, with severity gating.

One reporting layer serves both analyzers because they share the
:class:`~repro.analysis.diagnostics.Diagnostic` model.  The text format
is one line per finding plus a summary tally; the JSON format is a
versioned envelope (schema documented in ``docs/analysis.md``) so CI
consumers can parse it without scraping the human text.
"""

from __future__ import annotations

import json
from typing import Iterable

from .diagnostics import Diagnostic, Severity, gate, severity_counts

#: Version of the JSON report envelope.
JSON_SCHEMA_VERSION = 2


def summary_line(diagnostics: Iterable[Diagnostic]) -> str:
    """``"2 errors, 1 warning, 0 info"`` tally for the text report."""
    counts = severity_counts(diagnostics)
    plural = lambda n, word: f"{n} {word}{'s' if n != 1 and word != 'info' else ''}"
    return ", ".join(
        plural(counts[s], s) for s in ("error", "warning", "info")
    )


def render_text(
    diagnostics: Iterable[Diagnostic],
    *,
    minimum: Severity = Severity.INFO,
) -> str:
    """Human-readable report: one line per finding above ``minimum``.

    Returns ``"clean (no findings at or above <minimum>)"`` when the
    gate leaves nothing, so the CLI always prints something actionable.
    """
    shown = gate(diagnostics, minimum)
    if not shown:
        return f"clean (no findings at or above {minimum})"
    lines = [d.render() for d in shown]
    lines.append(summary_line(shown))
    return "\n".join(lines)


def render_json(
    diagnostics: Iterable[Diagnostic],
    *,
    minimum: Severity = Severity.INFO,
) -> str:
    """Versioned JSON report of findings at or above ``minimum``.

    The envelope is ``{"version": 2, "diagnostics": [...], "summary":
    {"error": n, "warning": n, "info": n}}`` with each diagnostic
    serialized by :meth:`~repro.analysis.diagnostics.Diagnostic.to_dict`.
    """
    shown = gate(diagnostics, minimum)
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "diagnostics": [d.to_dict() for d in shown],
        "summary": severity_counts(shown),
    }
    return json.dumps(payload, indent=2)

