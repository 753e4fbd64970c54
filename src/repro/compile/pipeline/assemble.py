"""Pass 3 — assemble: instantiate, scale, and sum into the program QUBO.

The final pass walks the original constraint order (positional alignment
with ``env.constraints`` is part of the public contract): each member's
template is relabeled onto its concrete variables with fresh
program-unique ancillas, soft penalties are audited for exactness, the
hard scale is fixed (default: total soft energy budget + 1, the hard
dominance argument of Section V), and the per-constraint QUBOs are
summed.

Ancilla names are drawn in constraint order — the same order the
pre-pipeline compiler used — so compiled programs are byte-identical to
the monolithic implementation's output.
"""

from __future__ import annotations

from typing import Callable

from ...qubo.model import QUBO
from ..cache import instantiate_template
from ..synthesize import GAP
from .base import PipelineConfig
from .canonicalize import CanonicalProgram
from .synthesis import SynthesisOutcome


def assemble(
    program: CanonicalProgram,
    outcome: SynthesisOutcome,
    config: PipelineConfig,
    ancilla_namer: Callable[[], str],
) -> dict:
    """Run pass 3; returns the fields of the final ``CompiledProgram``.

    ``program`` and ``outcome`` are the pass-1/2 products; ``config``
    supplies the optional hard-scale override and ``ancilla_namer``
    yields program-unique ancilla names in constraint order.

    The return value is a plain dict (qubo, ancillas, hard_scale,
    constraint_qubos, soft_penalties_exact) consumed by
    :func:`~repro.compile.pipeline.run_pipeline`, which owns the
    ``CompiledProgram`` construction and provenance attachment.
    """
    slots: list = [None] * program.num_constraints

    # Instantiate members in constraint order so ancilla names match
    # the monolithic compiler exactly.
    by_index = sorted(
        ((member, cls) for cls in program.classes for member in cls.members),
        key=lambda pair: pair[0].index,
    )
    for member, cls in by_index:
        slots[member.index] = (
            member.constraint,
            instantiate_template(
                outcome.templates[cls.key], member.constraint, ancilla_namer
            ),
        )

    # Soft energy budget, accumulated in constraint order (float addition
    # order is part of byte-compatibility).
    soft_energy_budget = 0.0
    all_soft_exact = True
    for slot in slots:
        if slot is None:
            continue
        constraint, result = slot
        if constraint.soft:
            if result.exact_penalty:
                soft_energy_budget += GAP
            else:
                all_soft_exact = False
                soft_energy_budget += result.max_energy_upper_bound()

    hard_scale = config.hard_scale
    if hard_scale is None:
        hard_scale = soft_energy_budget / GAP + 1.0

    total = QUBO()
    per_constraint: list[QUBO] = []
    ancillas: list[str] = []
    for slot in slots:
        if slot is None:
            # Unsatisfiable soft constraint: contributes nothing.
            per_constraint.append(QUBO())
            continue
        constraint, result = slot
        scaled = result.qubo * hard_scale if not constraint.soft else result.qubo
        ancillas.extend(result.ancillas)
        per_constraint.append(scaled)
        total += scaled

    return {
        "qubo": total.pruned(),
        "variables": program.variables,
        "ancillas": tuple(ancillas),
        "hard_scale": hard_scale,
        "constraint_qubos": per_constraint,
        "soft_penalties_exact": all_soft_exact,
    }
