"""Pass 3 — synthesize: execute the work-list, cheapest source first.

For every planned template class the pass resolves a
:class:`~repro.compile.cache.Template` from the cheapest available
source:

1. the on-disk :class:`~repro.compile.pipeline.store.TemplateStore`
   (when enabled) — a previous process already paid for the synthesis;
2. fresh synthesis — inline for closed-form/LP work, optionally fanned
   out over a ``ProcessPoolExecutor`` for the MILP-bound items when
   ``config.jobs > 1``.

Results are collected in work-list order, so the outcome — and every
downstream QUBO — is deterministic regardless of worker completion
order.  Newly synthesized templates are written back to the store
(best-effort) so the next process starts warm.

Cache statistics keep the historical in-memory semantics regardless of
the disk tier: each class's first member is a miss (a template had to be
*resolved*, from disk or from scratch), every further member is a hit.
Disk traffic is reported separately (``disk_hits`` / ``disk_misses``).

With ``config.cache=False`` (the ablation) there are no templates at
all: every constraint is synthesized directly, serially, with the
program's own ancilla namer — reproducing the reference implementation's
redundant recomputation byte-for-byte.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ... import telemetry
from ...core.types import Constraint
from ..cache import ANC, Template, build_strategy_template, build_template
from ..encodings import (
    DEFAULT_STRATEGY,
    EncodingCandidate,
    EncodingDecision,
    score_fragment,
    select_candidate,
)
from ..synthesize import SynthesisResult, synthesize_constraint_qubo, verify_constraint_qubo
from .base import PipelineConfig
from .plan import TIER_MILP, SynthesisPlan, WorkItem
from .store import TemplateStore


def _worker_build_template(constraint: Constraint, exact_penalty: bool) -> Template:
    """Process-pool entry point: synthesize one template.

    Runs in a worker process, so telemetry recorded there is invisible to
    the parent — the pass replicates the synthesis counters after
    collecting each result.  The template's ancillas are internal
    ``_tanc`` placeholders, making the result independent of worker
    identity and completion order.
    """
    return build_template(constraint, exact_penalty)


@dataclass
class SynthesisOutcome:
    """Pass-3 output: resolved templates plus cache accounting.

    ``templates`` maps class key → template (cache=True); ``direct`` maps
    constraint index → synthesis result (cache=False).  ``pooled`` counts
    templates built in worker processes; ``synthesized`` counts all fresh
    builds (pooled or inline) as opposed to disk loads.
    """

    templates: dict = field(default_factory=dict)
    direct: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_errors: int = 0
    synthesized: int = 0
    pooled: int = 0
    #: Per-class :class:`~repro.compile.encodings.EncodingDecision`
    #: records, in work-list order.  Empty under ``encoding="auto"`` —
    #: the zero-overhead default runs no portfolio at all.
    decisions: tuple = ()
    #: Total (class × strategy) candidates scored by the portfolio.
    candidates_scored: int = 0


def _replicate_worker_telemetry(template: Template) -> None:
    """Re-emit the synthesis counters a worker process recorded privately."""
    telemetry.count("compile.synthesize.calls")
    telemetry.count("compile.ancillas", template.num_ancillas)
    if template.used_closed_form:
        telemetry.count("compile.synthesize.closed_form")


def _pool_build(
    pooled: list[WorkItem], jobs: int
) -> Mapping[tuple, Template] | None:
    """Build ``pooled`` items' templates in worker processes.

    Returns None when no pool can be created (restricted environments) so
    the caller falls back to inline synthesis.  Results are keyed by
    class key and collected in submission order.
    """
    try:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(pooled)))
    except (OSError, NotImplementedError, ValueError):
        return None
    built: dict[tuple, Template] = {}
    with executor:
        futures = [
            executor.submit(
                _worker_build_template, item.cls.representative, item.cls.exact_penalty
            )
            for item in pooled
        ]
        for item, future in zip(pooled, futures):
            template = future.result()
            _replicate_worker_telemetry(template)
            built[item.cls.key] = template
    return built


def synthesize(
    plan: SynthesisPlan,
    config: PipelineConfig,
    ancilla_namer: Callable[[], str],
    store: TemplateStore | None,
) -> SynthesisOutcome:
    """Run pass 3 on ``plan`` under ``config``.

    ``ancilla_namer`` yields program-unique ancilla names (consumed only
    on the direct, cache-disabled path — template synthesis uses internal
    placeholder ancillas); ``store`` is the optional disk tier.
    """
    outcome = SynthesisOutcome()

    # Unsatisfiable soft constraints were dropped in pass 1, but each one
    # historically counted as a cache miss (synthesis was attempted).
    for _ in plan.program.skipped_soft:
        outcome.cache_misses += 1
        telemetry.count("compile.cache.misses")

    if not config.cache:
        for item in plan.items:
            (member,) = item.cls.members
            outcome.cache_misses += 1
            telemetry.count("compile.cache.misses")
            outcome.direct[member.index] = synthesize_constraint_qubo(
                member.constraint,
                ancilla_namer=ancilla_namer,
                exact_penalty=member.constraint.soft,
            )
            outcome.synthesized += 1
        return outcome

    # One miss per class (first member), one hit per further member.
    for item in plan.items:
        outcome.cache_misses += 1
        telemetry.count("compile.cache.misses")
        reuse = item.cls.multiplicity - 1
        if reuse:
            outcome.cache_hits += reuse
            telemetry.count("compile.cache.hits", reuse)

    # Tier 2: the disk store.
    pending: list[WorkItem] = []
    if store is not None:
        for item in plan.items:
            template = store.load(item.cls.key)
            if template is None:
                pending.append(item)
            else:
                outcome.templates[item.cls.key] = template
    else:
        pending = list(plan.items)

    # Fresh synthesis: MILP-bound items may fan out to worker processes.
    pooled = [i for i in pending if i.tier == TIER_MILP] if config.jobs > 1 else []
    if pooled:
        built = _pool_build(pooled, config.jobs)
        if built is None:
            pooled = []  # pool unavailable; synthesize inline below
        else:
            outcome.templates.update(built)
            outcome.pooled = len(built)
            outcome.synthesized += len(built)
    pooled_keys = {item.cls.key for item in pooled}

    for item in pending:
        if item.cls.key in pooled_keys:
            continue
        template = build_template(item.cls.representative, item.cls.exact_penalty)
        outcome.templates[item.cls.key] = template
        outcome.synthesized += 1

    # Write fresh templates back for the next process (best-effort).
    if store is not None:
        for item in pending:
            store.store(item.cls.key, outcome.templates[item.cls.key])

    # The encoding portfolio: score challenger strategies against the
    # default template and swap in verified cost-model winners.  Never
    # entered under encoding="auto" (every item has one strategy).
    if config.encoding != "auto":
        _run_portfolio(plan, config, outcome, store)

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
    item: WorkItem, template: Template, strategy: str, verified: bool | None, source: str
) -> EncodingCandidate:
    """Score one resolved template into an encoding candidate."""
    return score_fragment(
        strategy=strategy,
        qubo=template.qubo,
        ancillas=tuple(ANC.format(i) for i in range(template.num_ancillas)),
        num_variables=len(item.cls.representative.collection.unique),
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


def _run_portfolio(
    plan: SynthesisPlan,
    config: PipelineConfig,
    outcome: SynthesisOutcome,
    store: TemplateStore | None,
) -> None:
    """Resolve, score, verify, and select per-class encoding candidates.

    For every work item the default template (already resolved on the
    byte-identical path above) is scored alongside each planned
    challenger strategy's template — loaded from the disk store under the
    strategy's own key or synthesized fresh.  Challengers must pass the
    exhaustive/symmetric hard-dominance check
    (:func:`~repro.compile.synthesize.verify_constraint_qubo`) to be
    eligible; the winner replaces the class's template and the full
    scored field is recorded as an
    :class:`~repro.compile.encodings.EncodingDecision`.
    """
    decisions = []
    for item in plan.items:
        default_template = outcome.templates[item.cls.key]
        candidates = [
            _score_template(item, default_template, DEFAULT_STRATEGY, None, "default")
        ]
        templates = {DEFAULT_STRATEGY: default_template}
        for strategy in item.strategies:
            if strategy == DEFAULT_STRATEGY:
                continue
            skey = _strategy_key(item.cls.key, strategy)
            source = "disk"
            template = store.load(skey) if store is not None else None
            if template is None:
                source = "synthesized"
                template = build_strategy_template(
                    item.cls.representative, item.cls.exact_penalty, strategy
                )
                if template is None:
                    continue
                outcome.synthesized += 1
                if store is not None:
                    store.store(skey, template)
            verified = verify_constraint_qubo(
                item.cls.representative, _template_result(template)
            )
            status = "verified" if verified else "rejected"
            telemetry.count(f"compile.encoding.{status}")
            templates[strategy] = template
            candidates.append(
                _score_template(item, template, strategy, verified, source)
            )

        outcome.candidates_scored += len(candidates)
        telemetry.count("compile.encoding.candidates", len(candidates))
        winner, reason = select_candidate(
            candidates, config.encoding, exact_required=item.cls.exact_penalty
        )
        if winner.strategy != DEFAULT_STRATEGY:
            outcome.templates[item.cls.key] = templates[winner.strategy]
        telemetry.count("compile.encoding.selected")
        winner_slug = winner.strategy.replace("-", "_")
        telemetry.count(f"compile.encoding.selected.{winner_slug}")
        if reason.startswith("fallback"):
            telemetry.count("compile.encoding.fallback")
        decisions.append(
            EncodingDecision(
                constraint_indices=tuple(m.index for m in item.cls.members),
                mode=config.encoding,
                selected=winner.strategy,
                reason=reason,
                candidates=tuple(c.summary() for c in candidates),
                exact_required=item.cls.exact_penalty,
            )
        )
    outcome.decisions = tuple(decisions)
