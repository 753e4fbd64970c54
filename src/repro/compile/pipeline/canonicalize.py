"""Pass 1 — canonicalize: intern variables, deduplicate constraints.

Folds the program's constraint list into *template classes*: groups of
constraints sharing a :func:`~repro.compile.cache.template_key` (sorted
multiplicity profile + selection set + requested penalty exactness).
Every class carries one canonical representative over placeholder slot
names plus its member constraints; assembly relabels the synthesized
template back onto each member.

Unsatisfiable constraints are resolved here, before any synthesis money
is spent: a hard one aborts compilation
(:class:`~repro.core.types.UnsatisfiableError`, with the message the
lint pre-pass raises first in a full compile), a soft one penalizes
every assignment equally and is dropped (it contributes nothing to the
argmin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...core.types import Constraint, UnsatisfiableError
from ..cache import canonical_constraint, template_key

if TYPE_CHECKING:  # pragma: no cover
    from ...core.env import Env


@dataclass(frozen=True)
class ClassMember:
    """One concrete constraint inside a template class.

    ``index`` is its position in ``env.constraints`` (assembly order).
    """

    index: int
    constraint: Constraint


@dataclass(frozen=True)
class ConstraintClass:
    """All constraints sharing one synthesized QUBO template.

    ``representative`` is the canonical slot-named constraint handed to
    synthesis.
    """

    key: tuple
    representative: Constraint
    exact_penalty: bool
    members: tuple[ClassMember, ...]

    @property
    def multiplicity(self) -> int:
        """Number of concrete constraints reusing this template."""
        return len(self.members)


@dataclass(frozen=True)
class CanonicalProgram:
    """Pass-1 output: interned variables plus the deduplicated classes.

    ``classes`` keeps first-occurrence order, so every later pass walks
    them deterministically.  ``skipped_soft`` lists constraint indices
    of unsatisfiable soft constraints (compiled to nothing);
    ``num_constraints`` is the original program length, kept so later
    passes can reconstruct positional alignment.
    """

    variables: tuple[str, ...]
    classes: tuple[ConstraintClass, ...]
    skipped_soft: tuple[int, ...]
    num_constraints: int


def canonicalize(env: "Env") -> CanonicalProgram:
    """Run pass 1 on ``env``.

    Raises
    ------
    UnsatisfiableError
        If any single hard constraint is unsatisfiable in isolation.
        (Joint unsatisfiability across constraints is a backend's job.)
    """
    classes: dict[tuple, list[ClassMember]] = {}
    skipped: list[int] = []

    for index, constraint in enumerate(env.constraints):
        if constraint.is_unsatisfiable():
            if not constraint.soft:
                raise UnsatisfiableError(f"{constraint!r} is unsatisfiable")
            skipped.append(index)
            continue
        key = template_key(constraint, constraint.soft)
        classes.setdefault(key, []).append(ClassMember(index, constraint))

    return CanonicalProgram(
        variables=tuple(v.name for v in env.variables),
        classes=tuple(
            ConstraintClass(
                key=key,
                representative=canonical_constraint(members[0].constraint),
                exact_penalty=members[0].constraint.soft,
                members=tuple(members),
            )
            for key, members in classes.items()
        ),
        skipped_soft=tuple(skipped),
        num_constraints=env.num_constraints,
    )
