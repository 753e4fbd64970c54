"""Pass 2 — plan: turn template classes into a synthesis work-list.

Each :class:`~repro.compile.pipeline.canonicalize.ConstraintClass`
becomes one :class:`WorkItem`, classified by how its template will be
synthesized:

* ``closed-form`` — a known closed form applies and suffices (hard
  constraints whose penalty need not be exact): synthesis is a table
  lookup, never worth shipping to a worker process;
* ``lp`` — no ancillas expected (all multiplicities 1, or a closed form
  that must be re-derived with exact penalties): a single small linear
  program;
* ``milp`` — ancilla search over mixed-integer programs, the expensive
  tier and the only one fanned out to worker processes when
  ``jobs > 1``.

The classification is *advisory*: synthesis downstream is identical
regardless of tier (it re-checks closed forms itself), so a misclassified
item costs scheduling efficiency, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..closed_forms import closed_form_qubo
from ..encodings import DEFAULT_STRATEGY, get_strategy, strategy_names
from .base import PipelineConfig
from .canonicalize import CanonicalProgram, ConstraintClass

#: Work-item tiers, cheapest first.
TIER_CLOSED_FORM = "closed-form"
TIER_LP = "lp"
TIER_MILP = "milp"

TIERS = (TIER_CLOSED_FORM, TIER_LP, TIER_MILP)


@dataclass(frozen=True)
class WorkItem:
    """One template to synthesize: a class, its advisory tier, and the
    encoding strategies competing for it.

    ``strategies`` is the plan-time candidate stage of the encoding
    portfolio: the default strategy always leads (the fallback of last
    resort), followed by the challengers the config's encoding mode
    admits — none under ``auto``, the forced strategy under a forced
    mode, every applicable competing strategy under ``best``.
    """

    position: int
    cls: ConstraintClass
    tier: str
    strategies: tuple[str, ...] = (DEFAULT_STRATEGY,)


@dataclass(frozen=True)
class SynthesisPlan:
    """Pass-2 output: the ordered work-list plus the pass-1 program.

    ``items`` preserves first-occurrence class order so downstream result
    collection is deterministic regardless of completion order.
    """

    program: CanonicalProgram
    items: tuple[WorkItem, ...]

    def tier_counts(self) -> dict[str, int]:
        """Number of work items per tier (for provenance/CLI output)."""
        counts = {tier: 0 for tier in TIERS}
        for item in self.items:
            counts[item.tier] += 1
        return counts


def classify(cls: ConstraintClass) -> str:
    """Advisory synthesis tier for one template class."""
    probe = iter(range(10**6))
    closed = (
        closed_form_qubo(
            cls.representative, ancilla_namer=lambda: f"_probe{next(probe)}"
        )
        is not None
    )
    if closed and not cls.exact_penalty:
        return TIER_CLOSED_FORM
    if closed or all(m == 1 for m in cls.representative.collection.counts.values()):
        # Exact-penalty re-derivation of a closed-form shape, or an
        # all-distinct collection: the symmetric ansatz needs no ancillas,
        # so synthesis is a single LP.
        return TIER_LP
    return TIER_MILP


def candidate_strategies(cls: ConstraintClass, encoding: str) -> tuple[str, ...]:
    """The encoding strategies competing for one template class.

    The default strategy always leads: it is the fallback of last resort
    and the stable tie-break winner.  ``auto`` admits no challengers
    (zero-overhead, byte-identical compilation); a forced strategy name
    adds that strategy where it structurally applies; ``best`` adds every
    applicable competing strategy.  Direct (uncached) classes never
    compete — selection operates on template classes only.
    """
    if encoding == "auto" or cls.direct:
        return (DEFAULT_STRATEGY,)
    representative = cls.representative
    exact = cls.exact_penalty
    if encoding == "best":
        names = strategy_names(competing_only=True)
    else:
        names = (encoding,)
    challengers = tuple(
        name
        for name in names
        if name != DEFAULT_STRATEGY
        and get_strategy(name).applies(representative, exact)
    )
    return (DEFAULT_STRATEGY,) + challengers


def plan(program: CanonicalProgram, config: PipelineConfig) -> SynthesisPlan:
    """Run pass 2: classify every class into an ordered work-list.

    Under a non-``auto`` encoding mode each work item also carries its
    candidate strategies — the plan-time candidate stage of the encoding
    portfolio.
    """
    items = tuple(
        WorkItem(
            position=i,
            cls=cls,
            tier=classify(cls),
            strategies=candidate_strategies(cls, config.encoding),
        )
        for i, cls in enumerate(program.classes)
    )
    return SynthesisPlan(program=program, items=items)
