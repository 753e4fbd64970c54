"""Static analysis for NchooseK programs and for the repo itself.

Three analyzers share one :class:`~repro.analysis.diagnostics.Diagnostic`
model and one reporting layer:

* :mod:`repro.analysis.program` — the **program linter**: semantic
  pre-compile checks over an :class:`~repro.core.env.Env` (infeasible,
  tautological, duplicate/subsumed constraints; unconstrained
  variables; soft-weight/hard-gap scale mismatches; ancilla-budget
  estimates).  Runs automatically as the compiler pipeline's opt-out
  ``lint`` pre-pass.
* :mod:`repro.analysis.codelint` — the **codebase lint engine**:
  per-module AST rules over ``src/repro`` (docstring
  presence/coverage, unseeded RNG, naked ``except:``, mutable defaults,
  telemetry-name registry, diagnostic-code catalog drift, ``__all__``
  drift), honoring per-line ``# nck: noqa[CODE]`` suppressions.
* :mod:`repro.analysis.certify` — the **certification engine**:
  post-compile compositional proofs over a
  :class:`~repro.compile.program.CompiledProgram` (per-constraint
  energy-bound certificates combined by interval arithmetic into hard
  dominance + soft fidelity verdicts at any size, with exhaustive
  enumeration as the small-program fallback).  Runs as the pipeline's
  opt-in ``certify`` post-pass and cross-checks portfolio runs.

All three surface through ``python -m repro lint <problem>|--self`` and
``python -m repro certify <problem>``, and are catalogued, with worked
examples per rule code, in ``docs/analysis.md``.
"""

from .certify import (
    CERTIFY_RULES,
    CertificateStore,
    CertificationError,
    ConstraintCertificate,
    ProgramCertificate,
    certificate_diagnostics,
    certify_program,
    check_energy,
    recheck_certificate,
)
from .codelint import CODE_RULES, lint_file, lint_package
from .diagnostics import (
    Diagnostic,
    RuleInfo,
    Severity,
    exit_code,
    filter_ignored,
    gate,
    severity_counts,
)
from .program import PROGRAM_RULES, estimate_qubits, lint_program
from .report import render_json, render_text

__all__ = [
    "CERTIFY_RULES",
    "CODE_RULES",
    "CertificateStore",
    "CertificationError",
    "ConstraintCertificate",
    "Diagnostic",
    "PROGRAM_RULES",
    "ProgramCertificate",
    "RuleInfo",
    "Severity",
    "certificate_diagnostics",
    "certify_program",
    "check_energy",
    "estimate_qubits",
    "exit_code",
    "filter_ignored",
    "gate",
    "lint_file",
    "lint_package",
    "lint_program",
    "recheck_certificate",
    "render_json",
    "render_text",
    "severity_counts",
]
