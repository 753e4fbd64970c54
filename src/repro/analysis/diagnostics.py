"""The shared diagnostic model of :mod:`repro.analysis`.

Both analyzers — the NchooseK program linter
(:mod:`repro.analysis.program`) and the certification engine
(:mod:`repro.analysis.certify`) — emit the same value type: a
:class:`Diagnostic` carrying a stable rule code, a severity, the
offending object (a constraint or variable label), a message, and an
optional fix hint.  One model means one reporting layer
(:mod:`repro.analysis.report`) serves both.

Rule-code families
------------------
``NCK1xx``
    Program structure: infeasible, tautological, duplicate/subsumed
    constraints and unconstrained variables.
``NCK2xx``
    Energy-scale hygiene: soft weights vs. the hard-penalty gap.
``NCK3xx``
    Resource budgets: qubit-count estimates vs. a device budget.
``NCK4xx``
    Certification (:mod:`repro.analysis.certify`): hard-dominance not
    established or refuted, soft-fidelity violations, per-constraint /
    whole-program QUBO sum mismatches, structural certificate problems,
    inconclusive constraints.

Suppression
-----------
Program lints see Python objects, not source lines, so they take an
``ignore=("NCK104", ...)`` argument (see :func:`filter_ignored` and
``docs/analysis.md``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons read naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse ``"info"`` / ``"warning"`` / ``"error"`` (any case)."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[str(s) for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analyzer.

    Attributes
    ----------
    code:
        Stable rule identifier, e.g. ``"NCK101"``.
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable, single-sentence statement of the problem.
    source:
        Which analyzer produced it: ``"program"`` or ``"certify"``.
    obj:
        The offending object's identity: a ``constraint[i]`` /
        ``variable name`` label.
    hint:
        Optional actionable fix suggestion.
    """

    code: str
    severity: Severity
    message: str
    source: str = "program"
    obj: str | None = None
    hint: str | None = None

    @property
    def location(self) -> str:
        """Human-readable location prefix for the text report."""
        return self.obj or "<program>"

    def render(self) -> str:
        """One report line: ``location: SEVERITY CODE message [hint]``."""
        text = f"{self.location}: {self.severity} {self.code} {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text

    def to_dict(self) -> dict:
        """JSON-ready mapping (schema documented in docs/analysis.md)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "source": self.source,
            "object": self.obj,
            "hint": self.hint,
        }

    def sort_key(self) -> str:
        """Stable report order: by code (ties keep emission order)."""
        return self.code


@dataclass
class RuleInfo:
    """Registry entry describing one lint rule.

    ``code`` and ``name`` identify the rule; ``severity`` is its default
    severity (individual diagnostics may downgrade, e.g. an infeasible
    *soft* constraint is a warning where the hard case is an error);
    ``summary`` is the one-line catalog description.
    """

    code: str
    name: str
    severity: Severity
    summary: str
    #: Populated by the registering decorator; the callable's signature
    #: is analyzer-specific.
    check: object = field(default=None, repr=False)


def gate(diagnostics: Iterable[Diagnostic], minimum: Severity) -> list[Diagnostic]:
    """Keep diagnostics at or above ``minimum`` severity, report-sorted."""
    kept = [d for d in diagnostics if d.severity >= minimum]
    return sorted(kept, key=Diagnostic.sort_key)


def severity_counts(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """``{"error": n, "warning": n, "info": n}`` tallies."""
    counts = {str(s): 0 for s in reversed(Severity)}
    for d in diagnostics:
        counts[str(d.severity)] += 1
    return counts


def exit_code(diagnostics: Iterable[Diagnostic]) -> int:
    """CLI exit code: 2 with any error, 1 with any warning, else 0."""
    worst = max((d.severity for d in diagnostics), default=Severity.INFO)
    if worst >= Severity.ERROR:
        return 2
    if worst >= Severity.WARNING:
        return 1
    return 0


def filter_ignored(
    diagnostics: Iterable[Diagnostic], ignore: Sequence[str]
) -> list[Diagnostic]:
    """Drop diagnostics whose code is listed in ``ignore``."""
    ignored = {code.strip().upper() for code in ignore}
    return [d for d in diagnostics if d.code not in ignored]
