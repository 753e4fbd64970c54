"""Pass 2 — synthesize: resolve one template per class, cheapest source first.

For every template class, in first-occurrence order, the pass resolves a
:class:`~repro.compile.cache.Template` from the cheapest available
source:

1. the on-disk :class:`~repro.compile.pipeline.store.TemplateStore`
   (when enabled) — a previous process already paid for the synthesis;
2. fresh synthesis with :func:`~repro.compile.cache.build_template`,
   written back to the store (best-effort) so the next process starts
   warm.

Cache statistics keep the historical in-memory semantics regardless of
the disk tier: each class's first member is a miss (a template had to be
*resolved*, from disk or from scratch), every further member is a hit.
Disk traffic is reported separately (``disk_hits`` / ``disk_misses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import telemetry
from ..cache import ANC, Template, build_strategy_template, build_template
from ..encodings import (
    DEFAULT_STRATEGY,
    EncodingCandidate,
    EncodingDecision,
    get_strategy,
    score_fragment,
    select_candidate,
    strategy_names,
)
from ..synthesize import SynthesisResult, verify_constraint_qubo
from .base import PipelineConfig
from .canonicalize import CanonicalProgram, ConstraintClass
from .store import TemplateStore


@dataclass
class SynthesisOutcome:
    """Pass-2 output: resolved templates plus cache accounting.

    ``templates`` maps class key → template; ``synthesized`` counts
    fresh builds as opposed to disk loads.
    """

    templates: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_errors: int = 0
    synthesized: int = 0
    #: Per-class :class:`~repro.compile.encodings.EncodingDecision`
    #: records, in class order.  Empty under ``encoding="auto"`` —
    #: the zero-overhead default runs no portfolio at all.
    decisions: tuple = ()
    #: Total (class × strategy) candidates scored by the portfolio.
    candidates_scored: int = 0


def synthesize(
    program: CanonicalProgram,
    config: PipelineConfig,
    store: TemplateStore | None,
) -> SynthesisOutcome:
    """Run pass 2 on ``program`` under ``config``.

    ``store`` is the optional disk tier.
    """
    outcome = SynthesisOutcome()

    # One miss per class (first member), one hit per further member.
    # Unsatisfiable soft constraints were dropped in pass 1, but each one
    # historically counted as a miss too (synthesis was attempted).
    outcome.cache_misses = len(program.skipped_soft) + len(program.classes)
    outcome.cache_hits = sum(cls.multiplicity - 1 for cls in program.classes)
    if outcome.cache_misses:
        telemetry.count("compile.cache.misses", outcome.cache_misses)
    if outcome.cache_hits:
        telemetry.count("compile.cache.hits", outcome.cache_hits)

    for cls in program.classes:
        template = store.load(cls.key) if store is not None else None
        if template is None:
            template = build_template(cls.representative, cls.exact_penalty)
            outcome.synthesized += 1
            if store is not None:
                store.store(cls.key, template)
        outcome.templates[cls.key] = template

    # The encoding portfolio: score challenger strategies against the
    # default template and swap in verified cost-model winners.
    if config.encoding != "auto":
        _run_portfolio(program, config, outcome, store)

    if store is not None:
        outcome.disk_hits = store.hits
        outcome.disk_misses = store.misses
        outcome.disk_errors = store.errors
        telemetry.count("compile.disk_cache.hits", store.hits)
        telemetry.count("compile.disk_cache.misses", store.misses)

    return outcome


def _template_result(template: Template) -> SynthesisResult:
    """A template's fragment as a slot/ancilla-named synthesis result."""
    return SynthesisResult(
        qubo=template.qubo,
        ancillas=tuple(ANC.format(i) for i in range(template.num_ancillas)),
        used_closed_form=template.used_closed_form,
        exact_penalty=template.exact_penalty,
    )


def _score_template(
    cls: ConstraintClass,
    template: Template,
    strategy: str,
    verified: bool | None,
    source: str,
) -> EncodingCandidate:
    """Score one resolved template into an encoding candidate."""
    return score_fragment(
        strategy=strategy,
        qubo=template.qubo,
        ancillas=tuple(ANC.format(i) for i in range(template.num_ancillas)),
        num_variables=len(cls.representative.collection.unique),
        exact_penalty=template.exact_penalty,
        used_closed_form=template.used_closed_form,
        verified=verified,
        source=source,
    )


def _strategy_key(class_key: tuple, strategy: str) -> tuple:
    """The template key of ``strategy``'s entry for a class.

    Class keys carry the default strategy (canonicalization uses
    :func:`~repro.compile.cache.template_key`'s default); challengers
    live under the same symmetry class with the strategy swapped in.
    """
    return class_key[:2] + (strategy,)


def candidate_strategies(cls: ConstraintClass, encoding: str) -> tuple[str, ...]:
    """The challenger strategies competing with the default for one class.

    ``best`` admits every applicable competing strategy; a forced
    strategy name admits that strategy where it structurally applies
    (the default ``penalty`` strategy is never its own challenger).
    """
    names = strategy_names(competing_only=True) if encoding == "best" else (encoding,)
    return tuple(
        name
        for name in names
        if name != DEFAULT_STRATEGY
        and get_strategy(name).applies(cls.representative, cls.exact_penalty)
    )


def _run_portfolio(
    program: CanonicalProgram,
    config: PipelineConfig,
    outcome: SynthesisOutcome,
    store: TemplateStore | None,
) -> None:
    """Resolve, score, verify, and select per-class encoding candidates.

    For every class the default template (already resolved above) is
    scored alongside each challenger strategy's template — loaded from
    the disk store under the strategy's own key or synthesized fresh.
    Challengers must pass the exhaustive/symmetric hard-dominance check
    (:func:`~repro.compile.synthesize.verify_constraint_qubo`) to be
    eligible; the winner replaces the class's template and the full
    scored field is recorded as an
    :class:`~repro.compile.encodings.EncodingDecision`.
    """
    decisions = []
    for cls in program.classes:
        default_template = outcome.templates[cls.key]
        candidates = [
            _score_template(cls, default_template, DEFAULT_STRATEGY, None, "default")
        ]
        templates = {DEFAULT_STRATEGY: default_template}
        for strategy in candidate_strategies(cls, config.encoding):
            skey = _strategy_key(cls.key, strategy)
            source = "disk"
            template = store.load(skey) if store is not None else None
            if template is None:
                source = "synthesized"
                template = build_strategy_template(
                    cls.representative, cls.exact_penalty, strategy
                )
                if template is None:
                    continue
                outcome.synthesized += 1
                if store is not None:
                    store.store(skey, template)
            verified = verify_constraint_qubo(
                cls.representative, _template_result(template)
            )
            status = "verified" if verified else "rejected"
            telemetry.count(f"compile.encoding.{status}")
            templates[strategy] = template
            candidates.append(
                _score_template(cls, template, strategy, verified, source)
            )

        outcome.candidates_scored += len(candidates)
        telemetry.count("compile.encoding.candidates", len(candidates))
        winner, reason = select_candidate(
            candidates, config.encoding, exact_required=cls.exact_penalty
        )
        if winner.strategy != DEFAULT_STRATEGY:
            outcome.templates[cls.key] = templates[winner.strategy]
        telemetry.count("compile.encoding.selected")
        winner_slug = winner.strategy.replace("-", "_")
        telemetry.count(f"compile.encoding.selected.{winner_slug}")
        if reason.startswith("fallback"):
            telemetry.count("compile.encoding.fallback")
        decisions.append(
            EncodingDecision(
                constraint_indices=tuple(m.index for m in cls.members),
                mode=config.encoding,
                selected=winner.strategy,
                reason=reason,
                candidates=tuple(c.summary() for c in candidates),
                exact_required=cls.exact_penalty,
            )
        )
    outcome.decisions = tuple(decisions)
