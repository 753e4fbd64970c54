"""Whole-program compilation: NchooseK → QUBO (Section V).

Each constraint compiles to a per-constraint QUBO whose valid assignments
sit at energy 0 with a unit penalty gap; the program QUBO is their sum
(QUBOs are compositional with respect to addition).

This module is the public façade: :func:`compile_program` validates
its options into a :class:`~repro.compile.pipeline.PipelineConfig` and
hands off to :func:`~repro.compile.pipeline.run_pipeline`, which runs
the passes (lint → canonicalize → synthesize → assemble) described in
``docs/compiler.md``.  The pipeline's outputs are byte-compatible with
the pre-pipeline monolithic compiler.

Hard/soft balancing
-------------------
Soft-constraint QUBOs enter the sum with weight 1, so each violated soft
constraint raises the energy by ≥ 1 and the QUBO ground state maximizes
the number of satisfied soft constraints.  Hard-constraint QUBOs are
scaled by a factor strictly larger than the total soft weight (default
``num_soft + 1``) so that violating a single hard constraint always costs
more than violating every soft constraint: hard feasibility dominates.
The paper notes the flip side (Section VIII-A): the larger the hard bias,
the smaller the *relative* energy gap between solutions that differ by
one soft constraint — which is why mixed problems degrade fastest on
noisy annealers.  ``hard_scale`` is exposed for the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..qubo.model import QUBO, qubo_fingerprint

if TYPE_CHECKING:  # pragma: no cover
    from ..core.env import Env

#: Prefix of compiler-introduced ancilla variables, used to strip them
#: from solutions before they reach the user.
ANCILLA_PREFIX = "_qanc"


@dataclass
class CompiledProgram:
    """A compiled NchooseK program.

    Attributes
    ----------
    qubo:
        The summed program QUBO over environment variables + ancillas.
    variables:
        Environment variable names, in registration order.  Backends must
        report values for these; ancillas are an encoding detail.
    ancillas:
        Compiler-introduced ancilla names.
    hard_scale:
        The factor applied to every hard-constraint QUBO.
    ground_energy:
        The energy of an assignment satisfying all hard constraints and
        the maximum number of soft constraints *if every soft constraint
        were satisfiable simultaneously* (= 0 by normalization); the true
        optimum is ``(num_unsatisfiable_soft) * GAP`` above this, which
        backends discover rather than compute.
    constraint_qubos:
        Per-constraint scaled QUBOs, aligned with ``env.constraints`` —
        kept for diagnostics and the complexity benchmarks.
    provenance:
        Per-pass :class:`~repro.compile.pipeline.PassProvenance` records
        (name, wall time, item count, detail) in execution order —
        rendered by ``python -m repro compile``.
    certificate:
        The :class:`~repro.analysis.certify.ProgramCertificate` attached
        by the opt-in certify pass (``compile_program(certify=True)``),
        or ``None`` when certification did not run.
    """

    qubo: QUBO
    variables: tuple[str, ...]
    ancillas: tuple[str, ...]
    hard_scale: float
    constraint_qubos: list[QUBO] = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)
    #: Every soft constraint compiled to an exact-GAP penalty, so the
    #: QUBO ground state provably maximizes satisfied soft constraints.
    #: When False, soft counting is approximate (each violated soft costs
    #: ≥ GAP, not exactly GAP) and hard dominance is maintained through a
    #: larger ``hard_scale``.
    soft_penalties_exact: bool = True
    provenance: tuple = ()
    certificate: object = None

    @property
    def all_variables(self) -> tuple[str, ...]:
        """Environment variables followed by ancillas (QUBO column order)."""
        return self.variables + self.ancillas

    @property
    def fingerprint(self) -> str:
        """Content hash of the compiled QUBO, stable under term ordering.

        This is :func:`repro.qubo.qubo_fingerprint` of
        :attr:`qubo`, computed once per QUBO object and cached on the
        instance — the one canonical identity both the certification
        engine (``ProgramCertificate.qubo_sha256``) and the service
        result cache (:mod:`repro.service`) key on.  The memo is keyed
        on the identity of :attr:`qubo`, so rebinding the attribute
        (e.g. post-hoc tampering, which
        :func:`~repro.analysis.certify.recheck_certificate` must
        detect) recomputes the hash.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None or cached[0] is not self.qubo:
            cached = (self.qubo, qubo_fingerprint(self.qubo))
            self.__dict__["_fingerprint"] = cached
        return cached[1]

    def strip_ancillas(self, assignment: Mapping[str, bool | int]) -> dict[str, bool]:
        """Project a QUBO-level assignment onto environment variables."""
        return {v: bool(assignment[v]) for v in self.variables}


def compile_program(
    env: "Env",
    *,
    hard_scale: float | None = None,
    disk_cache: bool | None = None,
    cache_dir: str | None = None,
    certify: bool = False,
) -> CompiledProgram:
    """Compile ``env``'s program to a QUBO.

    Every constraint compiles the one way
    :func:`~repro.compile.synthesize.synthesize_constraint_qubo` knows:
    a closed form when one fits (for a soft constraint, only if its
    penalty is exact), otherwise the LP/MILP coefficient search.
    Symmetric constraints (Definition 7) share one synthesized QUBO
    template, and a :func:`repro.analysis.program.lint_program`
    pre-pass runs first: its error findings abort before synthesis and
    it never alters the compiled output.

    Parameters
    ----------
    hard_scale:
        Override the hard-constraint scaling factor.  Must exceed the
        total soft weight for hard dominance; the default is
        ``num_soft + 1``.
    disk_cache:
        Force the on-disk template store on (``True``) or off
        (``False``); ``None`` enables it exactly when a cache directory
        is configured via ``cache_dir`` or ``REPRO_CACHE_DIR``.
    cache_dir:
        Directory of the on-disk template store; implies the disk tier
        when set.
    certify:
        Run the :func:`repro.analysis.certify.certify_program` post-pass
        (off by default): proves hard dominance and soft fidelity
        compositionally, attaches the certificate to the returned
        program, and raises on a ``fail`` verdict.  Never changes the
        compiled QUBO.

    Raises
    ------
    UnsatisfiableError
        If any single hard constraint is unsatisfiable in isolation.
        (Joint unsatisfiability across constraints is a backend's job.)
    CertificationError
        Under ``certify=True``, if certification returns a ``fail``
        verdict.
    ValueError
        On invalid options (non-positive ``hard_scale``, ``cache_dir``
        with ``disk_cache=False``, a non-bool ``certify``).
    """
    from .pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig(
        hard_scale=hard_scale,
        disk_cache=disk_cache,
        cache_dir=cache_dir,
        certify=certify,
    )
    return run_pipeline(env, config)
