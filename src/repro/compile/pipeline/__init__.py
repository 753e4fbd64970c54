"""The staged compiler pipeline: lint → canonicalize → synthesize → assemble.

:func:`run_pipeline` is the engine behind
:func:`repro.compile.compile_program`.  Compilation starts with a
**lint** pre-pass (:mod:`repro.analysis.program`) whose error-severity
findings abort before any synthesis work, followed by three explicit
passes over an intermediate representation:

1. **canonicalize** (:mod:`.canonicalize`) — intern variables and
   deduplicate constraints into template classes keyed by
   :func:`~repro.compile.cache.template_key`;
2. **synthesize** (:mod:`.synthesis`) — resolve each class's template
   from the on-disk :class:`~repro.compile.pipeline.store.TemplateStore`
   or by fresh synthesis;
3. **assemble** (:mod:`.assemble`) — instantiate, scale, and sum into
   the final :class:`~repro.compile.program.CompiledProgram`.

An opt-in **certify** post-pass (``PipelineConfig(certify=True)``,
:mod:`repro.analysis.certify`) follows assembly: it proves hard
dominance and soft fidelity compositionally and attaches the resulting
:class:`~repro.analysis.certify.ProgramCertificate` to the compiled
program, aborting on a ``fail`` verdict.

Each pass runs under a ``compile.pass.<name>`` telemetry span and
contributes a :class:`~repro.compile.pipeline.base.PassProvenance`
record to the compiled program, so ``python -m repro compile`` can show
where compilation time went.

The pipeline is byte-compatible with the pre-pipeline monolithic
compiler: identical QUBOs, ancilla names, cache statistics, and
telemetry for every supported option combination.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from ... import telemetry
from .assemble import assemble
from .base import CACHE_DIR_ENV, PassProvenance, PipelineConfig
from .canonicalize import CanonicalProgram, ClassMember, ConstraintClass, canonicalize
from .store import SCHEMA_VERSION, TemplateStore
from .synthesis import SynthesisOutcome, synthesize

if TYPE_CHECKING:  # pragma: no cover
    from ...core.env import Env
    from ..program import CompiledProgram

__all__ = [
    "CACHE_DIR_ENV",
    "SCHEMA_VERSION",
    "CanonicalProgram",
    "ClassMember",
    "ConstraintClass",
    "PassProvenance",
    "PipelineConfig",
    "SynthesisOutcome",
    "TemplateStore",
    "assemble",
    "canonicalize",
    "run_pipeline",
    "synthesize",
]


def _lint_pre_pass(env: "Env", config: PipelineConfig) -> PassProvenance:
    """Run the program linter ahead of canonicalization.

    Error-severity findings abort compilation with
    :class:`~repro.core.types.UnsatisfiableError` (the same message the
    canonicalize pass raises when run on its own); warnings and info
    findings are tallied into the provenance record and the
    ``compile.lint.*`` counters but never change the compiled output.
    """
    from ...analysis.diagnostics import Severity, severity_counts
    from ...analysis.program import lint_program
    from ...core.types import UnsatisfiableError

    t0 = perf_counter()
    with telemetry.span("compile.lint", constraints=len(env.constraints)):
        diagnostics = lint_program(env, hard_scale=config.hard_scale)
        telemetry.count("compile.lint.diagnostics", len(diagnostics))
        errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
        telemetry.count("compile.lint.errors", len(errors))
    if errors:
        raise UnsatisfiableError(errors[0].message)
    return PassProvenance(
        name="lint",
        wall_s=perf_counter() - t0,
        items=len(env.constraints),
        detail=severity_counts(diagnostics),
    )


def _certify_post_pass(
    env: "Env", program: "CompiledProgram", config: PipelineConfig
) -> PassProvenance:
    """Certify the assembled program and attach the certificate.

    Runs :func:`repro.analysis.certify.certify_program` under a
    ``compile.pass.certify`` span, caching per-constraint energy
    profiles next to the template store when the disk tier is enabled.
    A ``fail`` verdict aborts with
    :class:`~repro.analysis.certify.CertificationError`; ``pass`` and
    ``inconclusive`` verdicts ride along as provenance + the
    ``compile.certify.*`` counters, never changing the compiled output.
    """
    from ...analysis.certify import (
        CertificationError,
        certificate_diagnostics,
        certificate_store,
        certify_program,
    )
    from ...analysis.diagnostics import Severity

    t0 = perf_counter()
    with telemetry.span("compile.pass.certify"):
        certificate = certify_program(env, program, store=certificate_store(config))
        telemetry.count("compile.certify.programs")
        if certificate.verdict != "pass":
            telemetry.count(f"compile.certify.{certificate.verdict}")
    if certificate.verdict == "fail":
        errors = [
            d
            for d in certificate_diagnostics(certificate)
            if d.severity >= Severity.ERROR
        ]
        detail = errors[0].message if errors else certificate.dominance
        raise CertificationError(f"certification failed: {detail}")
    program.certificate = certificate
    return PassProvenance(
        name="certify",
        wall_s=perf_counter() - t0,
        items=len(certificate.constraints),
        detail={
            "verdict": certificate.verdict,
            "dominance": certificate.dominance,
            "soft_fidelity": certificate.soft_fidelity,
            "cached": sum(1 for c in certificate.constraints if c.cached),
        },
    )


def run_pipeline(env: "Env", config: PipelineConfig) -> "CompiledProgram":
    """Compile ``env`` through the pipeline under ``config``.

    Raises
    ------
    UnsatisfiableError
        If any single hard constraint is unsatisfiable in isolation
        (raised by the lint pre-pass).
    """
    from ..program import ANCILLA_PREFIX, CompiledProgram

    counter = iter(range(10**9))

    def ancilla_namer() -> str:
        while True:
            name = f"{ANCILLA_PREFIX}{next(counter)}"
            if name not in env:
                return name

    store = TemplateStore(config.resolved_cache_dir()) if config.disk_enabled else None
    provenance: list[PassProvenance] = []

    with telemetry.span(
        "compile.program",
        constraints=len(env.constraints),
        variables=env.num_variables,
    ) as tspan:
        provenance.append(_lint_pre_pass(env, config))

        t0 = perf_counter()
        with telemetry.span("compile.pass.canonicalize"):
            program = canonicalize(env)
        provenance.append(
            PassProvenance(
                name="canonicalize",
                wall_s=perf_counter() - t0,
                items=program.num_constraints,
                detail={
                    "classes": len(program.classes),
                    "skipped_soft": len(program.skipped_soft),
                },
            )
        )

        t0 = perf_counter()
        with telemetry.span("compile.pass.synthesize"):
            outcome = synthesize(program, store)
        provenance.append(
            PassProvenance(
                name="synthesize",
                wall_s=perf_counter() - t0,
                items=len(program.classes),
                detail={
                    "synthesized": outcome.synthesized,
                    "disk_hits": outcome.disk_hits,
                    "disk_misses": outcome.disk_misses,
                },
            )
        )

        t0 = perf_counter()
        with telemetry.span("compile.pass.assemble"):
            fields = assemble(program, outcome, config, ancilla_namer)
        provenance.append(
            PassProvenance(
                name="assemble",
                wall_s=perf_counter() - t0,
                items=program.num_constraints,
                detail={
                    "ancillas": len(fields["ancillas"]),
                    "hard_scale": fields["hard_scale"],
                },
            )
        )

        tspan.set(
            ancillas=len(fields["ancillas"]),
            hard_scale=fields["hard_scale"],
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
        )
        telemetry.gauge("compile.cache.templates", len(outcome.templates))
        telemetry.count("compile.programs")

        cache_stats = {
            "hits": outcome.cache_hits,
            "misses": outcome.cache_misses,
            "templates": len(outcome.templates),
            "disk_enabled": store is not None,
            "disk_hits": outcome.disk_hits,
            "disk_misses": outcome.disk_misses,
            "disk_errors": outcome.disk_errors,
        }
        compiled = CompiledProgram(
            qubo=fields["qubo"],
            variables=fields["variables"],
            ancillas=fields["ancillas"],
            hard_scale=fields["hard_scale"],
            constraint_qubos=fields["constraint_qubos"],
            cache_stats=cache_stats,
            soft_penalties_exact=fields["soft_penalties_exact"],
            provenance=tuple(provenance),
        )
        if config.certify:
            provenance.append(_certify_post_pass(env, compiled, config))
            compiled.provenance = tuple(provenance)
        return compiled
