"""Constraint symmetry classes (Definition 7).

Two NchooseK constraints are *symmetric* when they have the same selection
set and their variable collections have the same cardinality.  Symmetric
constraints compile to structurally identical QUBOs (only the variable
labels differ), which both underlies the paper's programmer-complexity
argument (Table I column 3 counts mutually non-symmetric constraints) and
enables the compile-time QUBO cache the paper's timing section calls for.

Multiplicities matter for caching: ``nck({a,a,b},{2})`` and
``nck({a,b,c},{2})`` share cardinality and selection set — and are
symmetric by Definition 7 — but their truth tables over *unique* variables
differ.  :func:`cache_key` therefore also folds in the sorted multiplicity
profile, a strictly finer partition than Definition 7's.
"""

from __future__ import annotations

from typing import Iterable

from .types import Constraint


def symmetry_key(constraint: Constraint) -> tuple:
    """Definition 7 equivalence-class key: (cardinality, selection set)."""
    return (constraint.collection.cardinality, constraint.selection.values)


def cache_key(constraint: Constraint) -> tuple:
    """Finer key under which constraints share a compiled QUBO template.

    Constraints with equal sorted multiplicity profiles and equal selection
    sets have identical truth tables over their unique variables (up to
    variable renaming along the multiplicity profile), hence identical
    synthesized QUBO coefficient templates.
    """
    return (
        tuple(sorted(constraint.collection.multiplicities)),
        constraint.selection.values,
    )


def are_symmetric(a: Constraint, b: Constraint) -> bool:
    """Definition 7 predicate."""
    return symmetry_key(a) == symmetry_key(b)


def count_nonsymmetric(constraints: Iterable[Constraint]) -> int:
    """Number of mutually non-symmetric constraint classes (Table I col. 3)."""
    return len({symmetry_key(c) for c in constraints})


def symmetry_classes(constraints: Iterable[Constraint]) -> dict[tuple, list[Constraint]]:
    """Group constraints into Definition 7 equivalence classes."""
    classes: dict[tuple, list[Constraint]] = {}
    for c in constraints:
        classes.setdefault(symmetry_key(c), []).append(c)
    return classes
