"""Symmetric-constraint QUBO templates: the algebra of the template cache.

The paper's timing discussion (Section VIII-C) observes that the reference
implementation "redundantly computes QUBOs for symmetric constraints
instead of caching previously computed QUBOs," costing 40–50× the direct
classical solve time.  This module supplies the fix: constraints whose
sorted multiplicity profile and selection set agree share a synthesized
QUBO *template* over positional placeholder names, which is relabeled onto
each concrete constraint's variables.

Relabeling must respect multiplicities: template position ``i`` carries
the ``i``-th smallest multiplicity, so a concrete constraint's unique
variables are matched to template slots after sorting by (multiplicity,
name) — any variables of equal multiplicity are interchangeable by
symmetry of the TRUE-count.

The staged compiler (:mod:`repro.compile.pipeline`) is the one consumer.
Its synthesize pass keeps the in-memory cache, a dict of templates keyed
by :func:`template_key`, above the on-disk
:class:`~repro.compile.pipeline.store.TemplateStore` and calls
:func:`build_template` on a miss; its assemble pass calls
:func:`instantiate_template` once per constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.symmetry import cache_key
from ..core.types import Constraint, SelectionSet, Var, VariableCollection
from ..qubo.model import QUBO
from .synthesize import SynthesisResult, synthesize_constraint_qubo

#: Placeholder variable-name formats inside cached templates: ``SLOT`` for
#: the constraint's (multiplicity-sorted) unique variables, ``ANC`` for
#: template-local ancillas.
SLOT = "_slot{}"
ANC = "_tanc{}"


@dataclass(frozen=True)
class Template:
    """A synthesized QUBO over placeholder slot/ancilla names.

    Templates are position-addressed (``_slot0``, ``_slot1``, …, ancillas
    ``_tanc0``…) and therefore shareable across every constraint in the
    same :func:`~repro.core.symmetry.cache_key` class, in memory or on
    disk.
    """

    qubo: QUBO
    num_ancillas: int
    used_closed_form: bool
    exact_penalty: bool
    #: The encoding strategy that synthesized this template (see
    #: :mod:`repro.compile.encodings`).  Part of the cache identity:
    #: one strategy's template must never be served for another.
    strategy: str = "penalty"


def template_key(
    constraint: Constraint, exact_penalty: bool, strategy: str = "penalty"
) -> tuple:
    """The key under which ``constraint`` shares a template.

    Combines :func:`~repro.core.symmetry.cache_key` (sorted multiplicity
    profile + selection set) with the requested penalty exactness — soft
    constraints compile with ``exact_penalty=True`` and must not share
    templates with hard ones — and the encoding strategy identity, so
    the portfolio's competing encodings of one constraint class occupy
    distinct cache entries (in memory and on disk).
    """
    return (cache_key(constraint), exact_penalty, strategy)


def build_template(constraint: Constraint, exact_penalty: bool) -> Template:
    """Synthesize the slot-named template for ``constraint``'s class.

    The constraint is first canonicalized onto placeholder slot names
    (:func:`canonical_constraint`), then synthesized; template ancillas
    are renumbered to a gapless ``_tanc0.._tancK-1`` because synthesis
    may consume namer outputs for discarded attempts (e.g. a closed form
    rejected for inexact penalties).

    ``exact_penalty`` requests invalid assignments pinned to exactly the
    unit gap (soft-constraint compilation).
    """
    canonical = canonical_constraint(constraint)
    counter = iter(range(10**6))
    result = synthesize_constraint_qubo(
        canonical,
        ancilla_namer=lambda: ANC.format(next(counter)),
        exact_penalty=exact_penalty,
    )
    renumber = {old: ANC.format(i) for i, old in enumerate(result.ancillas)}
    return Template(
        qubo=result.qubo.relabeled(renumber),
        num_ancillas=len(result.ancillas),
        used_closed_form=result.used_closed_form,
        exact_penalty=result.exact_penalty,
    )


def build_strategy_template(
    constraint: Constraint, exact_penalty: bool, strategy: str
) -> Template | None:
    """Synthesize a slot-named template under one specific encoding strategy.

    Unlike :func:`build_template` (the default ``penalty`` chain, which
    always succeeds or raises), a challenger strategy may be inapplicable
    or find nothing — in which case None is returned and the caller
    drops the candidate.  Ancillas are renumbered gaplessly exactly as in
    :func:`build_template`.
    """
    from .encodings import get_strategy

    canonical = canonical_constraint(constraint)
    counter = iter(range(10**6))
    strat = get_strategy(strategy)
    if not strat.applies(canonical, exact_penalty):
        return None
    result = strat.encode(
        canonical, lambda: ANC.format(next(counter)), exact_penalty
    )
    if result is None:
        return None
    renumber = {old: ANC.format(i) for i, old in enumerate(result.ancillas)}
    return Template(
        qubo=result.qubo.relabeled(renumber),
        num_ancillas=len(result.ancillas),
        used_closed_form=result.used_closed_form,
        exact_penalty=result.exact_penalty,
        strategy=strategy,
    )


def instantiate_template(
    template: Template, constraint: Constraint, ancilla_namer
) -> SynthesisResult:
    """Relabel ``template`` onto ``constraint``'s concrete variables.

    ``ancilla_namer`` yields fresh program-unique ancilla names; each
    instantiation gets its own ancillas (ancillas are never shared
    between constraints).
    """
    mapping = slot_mapping(constraint)
    ancillas = tuple(ancilla_namer() for _ in range(template.num_ancillas))
    for i, anc in enumerate(ancillas):
        mapping[ANC.format(i)] = anc
    return SynthesisResult(
        qubo=template.qubo.relabeled(mapping),
        ancillas=ancillas,
        used_closed_form=template.used_closed_form,
        exact_penalty=template.exact_penalty,
    )


def _sorted_unique(constraint: Constraint) -> list[tuple[int, Var]]:
    """Unique variables sorted by (multiplicity, name) — the slot order."""
    counts = constraint.collection.counts
    return sorted(((m, v) for v, m in counts.items()), key=lambda t: (t[0], t[1].name))


def canonical_constraint(constraint: Constraint) -> Constraint:
    """The representative constraint over placeholder slot names."""
    elements: list[Var] = []
    for i, (mult, _var) in enumerate(_sorted_unique(constraint)):
        elements.extend([Var(SLOT.format(i))] * mult)
    return Constraint(
        VariableCollection(elements),
        SelectionSet(constraint.selection.values),
        soft=constraint.soft,
    )


def slot_mapping(constraint: Constraint) -> dict[str, str]:
    """Map template slot names to the concrete constraint's variables."""
    return {
        SLOT.format(i): var.name
        for i, (_mult, var) in enumerate(_sorted_unique(constraint))
    }
