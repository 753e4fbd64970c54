"""Pass 1 — canonicalize: intern variables, deduplicate constraints.

Folds the program's constraint list into *template classes*: groups of
constraints sharing a :func:`~repro.compile.cache.template_key` (sorted
multiplicity profile + selection set + requested penalty exactness).
Every class carries one canonical representative over placeholder slot
names plus, per member, the slot→variable mapping that later relabels
the synthesized template back onto the concrete constraint.

Unsatisfiable constraints are resolved here, before any synthesis money
is spent: a hard one aborts compilation
(:class:`~repro.core.types.UnsatisfiableError`), a soft one penalizes
every assignment equally and is dropped from the work-list (it
contributes nothing to the argmin).

With template caching disabled (the ablation mode) no deduplication
happens: every constraint becomes its own single-member *direct* class
and is synthesized from scratch downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ...core.types import Constraint, UnsatisfiableError
from ..cache import canonical_constraint, slot_mapping, template_key
from .base import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover
    from ...core.env import Env


@dataclass(frozen=True)
class ClassMember:
    """One concrete constraint inside a template class.

    ``index`` is its position in ``env.constraints`` (assembly order);
    ``mapping`` relabels template slots onto its variable names.
    """

    index: int
    constraint: Constraint
    mapping: Mapping[str, str]


@dataclass(frozen=True)
class ConstraintClass:
    """All constraints sharing one synthesized QUBO template.

    ``representative`` is the canonical slot-named constraint handed to
    synthesis; ``direct`` marks the cache-disabled mode where the member
    constraint itself is synthesized (no template sharing).
    """

    key: tuple
    representative: Constraint
    exact_penalty: bool
    members: tuple[ClassMember, ...]
    direct: bool = False

    @property
    def multiplicity(self) -> int:
        """Number of concrete constraints reusing this template."""
        return len(self.members)


@dataclass(frozen=True)
class CanonicalProgram:
    """Pass-1 output: interned variables plus the deduplicated classes.

    ``skipped_soft`` lists constraint indices of unsatisfiable soft
    constraints (compiled to nothing); ``num_constraints`` is the
    original program length, kept so later passes can reconstruct
    positional alignment.
    """

    variables: tuple[str, ...]
    classes: tuple[ConstraintClass, ...]
    skipped_soft: tuple[int, ...]
    num_constraints: int


def canonicalize(env: "Env", config: PipelineConfig) -> CanonicalProgram:
    """Run pass 1 on ``env`` under ``config``.

    Raises
    ------
    UnsatisfiableError
        If any single hard constraint is unsatisfiable in isolation.
        (Joint unsatisfiability across constraints is a backend's job.)
    """
    classes: dict[tuple, list[ClassMember]] = {}
    order: list[tuple] = []
    representatives: dict[tuple, Constraint] = {}
    skipped: list[int] = []

    for index, constraint in enumerate(env.constraints):
        if constraint.is_unsatisfiable():
            if not constraint.soft:
                raise UnsatisfiableError(f"{constraint!r} is unsatisfiable")
            skipped.append(index)
            continue
        exact_penalty = constraint.soft
        if config.cache:
            key = template_key(constraint, exact_penalty)
            member = ClassMember(
                index=index, constraint=constraint, mapping=slot_mapping(constraint)
            )
        else:
            # Ablation mode: one direct class per constraint, no sharing.
            key = ("direct", index)
            member = ClassMember(index=index, constraint=constraint, mapping={})
        bucket = classes.get(key)
        if bucket is None:
            classes[key] = [member]
            order.append(key)
            representatives[key] = (
                canonical_constraint(constraint) if config.cache else constraint
            )
        else:
            bucket.append(member)

    return CanonicalProgram(
        variables=tuple(v.name for v in env.variables),
        classes=tuple(
            ConstraintClass(
                key=key,
                representative=representatives[key],
                exact_penalty=representatives[key].soft,
                members=tuple(classes[key]),
                direct=not config.cache,
            )
            for key in order
        ),
        skipped_soft=tuple(skipped),
        num_constraints=env.num_constraints,
    )
