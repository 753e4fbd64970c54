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
from ..cache import build_template
from .canonicalize import CanonicalProgram
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


def synthesize(
    program: CanonicalProgram, store: TemplateStore | None
) -> SynthesisOutcome:
    """Run pass 2 on ``program``.

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

    if store is not None:
        outcome.disk_hits = store.hits
        outcome.disk_misses = store.misses
        outcome.disk_errors = store.errors
        telemetry.count("compile.disk_cache.hits", store.hits)
        telemetry.count("compile.disk_cache.misses", store.misses)

    return outcome
