"""Pluggable per-constraint encoding strategies (the encoding portfolio).

The related work shows that the *encoding choice* — slack-based vs
slack-free vs closed-form penalties — is the dominant lever on ancilla
count, coupling density, and penalty-scale headroom: Djidjev's
inequality-constrained set cover (arXiv:2302.11185), "Cutting Slack"
(arXiv:2507.12159), and the slack-free custom-penalty construction
(arXiv:2504.12611) all win qubits and energy scale by swapping the
encoding, not the solver.  This module turns the compiler's single
synthesis path into a registry of competing :class:`EncodingStrategy`
objects, each mapping one canonical constraint to a scored
:class:`EncodingCandidate`.

Registered strategies
---------------------
``closed-form``
    The closed-form shape table of :mod:`repro.compile.closed_forms`,
    promoted to a first-class strategy (it used to be an ad-hoc pre-check
    inside ``synthesize.py``).  It is the first tier of the default chain
    and does not compete on its own — its fragments are a strict subset
    of ``penalty``'s.
``penalty``
    The pre-portfolio default: closed forms first, then the
    LP/MILP truth-table and symmetric-ansatz search.  Byte-identical to
    the historical ``_synthesize_dispatch`` chain; always applicable.
``slack``
    The naive structured encoding for contiguous selection ranges
    ``{k₁..k₂}`` over distinct variables: the binary-expansion slack
    penalty ``(Σx − k₁ − w)²`` with ``⌈log₂(span+1)⌉`` slack ancillas,
    applied *unconditionally* (even where an ancilla-free closed form
    exists).  This is the textbook inequality encoding the slack-free
    literature benchmarks against.
``slack-free``
    Custom penalties without structured slack, following the spirit of
    arXiv:2504.12611: ancilla-free closed forms where they exist
    (exactly-k, adjacent two-point), otherwise an LP/MILP search for
    L1-minimal custom coefficients whose ancillas — when any are needed
    at all — are free coefficients found by optimization, not a binary
    expansion of the constraint surplus.  For moderate inequality
    windows this beats the slack expansion's ancilla count outright
    (see ``docs/encodings.md`` for the tradeoff table).

Every strategy produces fragments satisfying the one validity spec of
:mod:`repro.compile.synthesize`: valid assignments at energy 0 (after
minimizing over ancillas), invalid ones at ≥ :data:`~repro.compile.synthesize.GAP`.
Cross-encoding equivalence is therefore checkable — and *checked*:
non-default selections are gated on
:func:`~repro.compile.synthesize.verify_constraint_qubo`, the same
hard-dominance predicate the certification engine builds on.

Cost model
----------
Candidates are ranked by the deterministic scalar

``cost = (1 + ancillas) · (1 + coupling_density) · (1 + penalty_scale)``

— monotone in each of the three axes the papers trade against each
other (qubits, graph density, dynamic range), smoothed by +1 so no axis
can zero out the others.  Ties break by registry order, which puts the
default ``penalty`` strategy first, so auto-selection is stable across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.types import Constraint
from ..qubo.model import QUBO
from .closed_forms import _exactly_k, _interval_slack, _two_point, closed_form_qubo
from .synthesize import (
    SynthesisResult,
    _penalty_is_exact,
    _synthesize_search,
    verify_constraint_qubo,
)

#: Registry order = stable tie-break order; the default strategy is first.
DEFAULT_STRATEGY = "penalty"

#: The non-strategy encoding modes accepted by the pipeline: ``auto``
#: keeps the default strategy everywhere (byte-identical compilation),
#: ``best`` lets every applicable strategy compete under the cost model
#: with verification gating non-default winners.
SELECTION_MODES = ("auto", "best")

#: Cardinality cap for the slack-free custom-penalty search: the
#: symmetric MILP grows with collection size, and beyond this the slack
#: expansion's logarithmic ancilla count wins anyway.
SLACK_FREE_MAX_CARDINALITY = 32


class EncodingStrategy:
    """One way of turning a canonical constraint into a QUBO fragment.

    Subclasses set :attr:`name` (the registry/CLI identity) and
    :attr:`competes` (whether the strategy enters ``best``-mode candidate
    generation on its own), and implement :meth:`applies` /
    :meth:`encode`.
    """

    #: Registry name; also the CLI ``--encoding`` choice and the
    #: template-store key component.
    name: str = ""

    #: Whether the strategy generates candidates in ``best`` mode.
    #: ``closed-form`` sets this False: its fragments are a subset of
    #: ``penalty``'s, so competing would only duplicate candidates.
    competes: bool = True

    def applies(self, constraint: Constraint, exact_penalty: bool) -> bool:
        """Cheap structural test: could :meth:`encode` possibly succeed?"""
        raise NotImplementedError

    def encode(
        self, constraint: Constraint, ancilla_namer, exact_penalty: bool
    ) -> SynthesisResult | None:
        """Synthesize the fragment, or None when the strategy yields nothing.

        ``ancilla_namer`` is a zero-argument callable producing fresh
        ancilla names; ``exact_penalty`` requests invalid assignments
        pinned to exactly the unit gap (soft-constraint compilation) —
        strategies that cannot honor it must return None rather than a
        silently inexact fragment.
        """
        raise NotImplementedError


class ClosedFormStrategy(EncodingStrategy):
    """The closed-form shape table as a first-class registry member.

    Replicates the historical pre-check byte-for-byte: the closed form is
    synthesized (consuming ancilla names for slack shapes), audited for
    penalty exactness, and *rejected* — returning None so the caller
    falls through to search — when an exact penalty was requested but the
    shape only guarantees the inequality form.
    """

    name = "closed-form"
    competes = False

    def applies(self, constraint: Constraint, exact_penalty: bool) -> bool:
        """True when a closed-form shape fits the constraint."""
        probe = iter(range(10**6))
        return (
            closed_form_qubo(constraint, ancilla_namer=lambda: f"_probe{next(probe)}")
            is not None
        )

    def encode(
        self, constraint: Constraint, ancilla_namer, exact_penalty: bool
    ) -> SynthesisResult | None:
        """Look up the shape table; None when no shape (or exactness) fits."""
        closed = closed_form_qubo(constraint, ancilla_namer)
        if closed is None:
            return None
        qubo, ancillas = closed
        probe = SynthesisResult(qubo=qubo, ancillas=ancillas, used_closed_form=True)
        is_exact = _penalty_is_exact(constraint, probe)
        if exact_penalty and not is_exact:
            return None
        return replace(probe, exact_penalty=is_exact)


class PenaltyStrategy(EncodingStrategy):
    """The default truth-table/closed-form penalty chain, extracted.

    Byte-identical to the pre-portfolio ``_synthesize_dispatch``: closed
    forms first (via the registered ``closed-form`` strategy), then the
    symmetric/truth-table LP→MILP search, preferring exact penalties when
    requested and degrading to the inequality form when none exists
    within the ancilla budget.
    """

    name = "penalty"

    def applies(self, constraint: Constraint, exact_penalty: bool) -> bool:
        """Always a candidate — this is the strategy of last resort."""
        return True

    def encode(
        self, constraint: Constraint, ancilla_namer, exact_penalty: bool
    ) -> SynthesisResult | None:
        """Closed form, else LP/MILP search; None if the budget runs out."""
        closed = CLOSED_FORM.encode(constraint, ancilla_namer, exact_penalty)
        if closed is not None:
            return closed
        for want_exact in (True, False) if exact_penalty else (False,):
            result = _synthesize_search(constraint, ancilla_namer, want_exact)
            if result is not None:
                return result
        return None


class SlackStrategy(EncodingStrategy):
    """Naive binary-expansion slack for contiguous selection ranges.

    For ``{k₁..k₂}`` over distinct variables the penalty is
    ``(Σx − k₁ − w)²`` with ``w`` a log-encoded slack register — applied
    even where the span is small enough for an ancilla-free closed form,
    because this strategy's job is to *be* the textbook inequality
    encoding the slack-free alternatives are measured against.
    Single-value selections degenerate to ``(k − Σx)²`` (no slack needed;
    the equality penalty has no surplus to absorb).
    """

    name = "slack"

    def applies(self, constraint: Constraint, exact_penalty: bool) -> bool:
        """Distinct variables and a contiguous selection set."""
        if any(m != 1 for m in constraint.collection.multiplicities):
            return False
        return constraint.selection.is_contiguous()

    def encode(
        self, constraint: Constraint, ancilla_namer, exact_penalty: bool
    ) -> SynthesisResult | None:
        """Emit the slack expansion; None off-shape or for inexact softs."""
        if not self.applies(constraint, exact_penalty):
            return None
        if constraint.is_trivial():
            return SynthesisResult(
                qubo=QUBO(), ancillas=(), used_closed_form=True, exact_penalty=True
            )
        names = [v.name for v in constraint.collection.unique]
        sel = constraint.selection.values
        if len(sel) == 1:
            qubo, ancillas = _exactly_k(names, sel[0]), ()
        else:
            qubo, ancillas = _interval_slack(names, sel[0], sel[-1], ancilla_namer)
        probe = SynthesisResult(qubo=qubo, ancillas=ancillas, used_closed_form=True)
        is_exact = _penalty_is_exact(constraint, probe)
        if exact_penalty and not is_exact:
            return None
        return replace(probe, exact_penalty=is_exact)


class SlackFreeStrategy(EncodingStrategy):
    """Custom penalties without structured slack (arXiv:2504.12611 style).

    Ancilla-free closed forms (trivial, exactly-k, adjacent two-point)
    are slack-free by construction and returned directly.  Everything
    else goes to the L1-minimal LP/MILP search — *skipping* the
    interval-slack closed form — so inequality windows get custom
    coefficients whose ancillas, when needed at all, are free variables
    of the optimization rather than a binary expansion of the surplus.
    A width-``w`` window needs about ``⌈(w−1)/2⌉`` such ancillas versus
    the expansion's ``⌈log₂(w+1)⌉``, which is strictly fewer for the
    moderate windows inequality families actually produce (and more for
    huge ones — which is exactly what the cost model arbitrates).
    """

    name = "slack-free"

    def applies(self, constraint: Constraint, exact_penalty: bool) -> bool:
        """Distinct variables, below the custom-search cardinality cap."""
        if any(m != 1 for m in constraint.collection.multiplicities):
            return False
        return constraint.collection.cardinality <= SLACK_FREE_MAX_CARDINALITY

    def encode(
        self, constraint: Constraint, ancilla_namer, exact_penalty: bool
    ) -> SynthesisResult | None:
        """Ancilla-free closed forms, else the custom-coefficient search."""
        if not self.applies(constraint, exact_penalty):
            return None
        if constraint.is_trivial():
            return SynthesisResult(
                qubo=QUBO(), ancillas=(), used_closed_form=True, exact_penalty=True
            )
        closed = self._ancilla_free_closed_form(constraint)
        if closed is not None:
            is_exact = _penalty_is_exact(constraint, closed)
            if not exact_penalty or is_exact:
                return replace(closed, exact_penalty=is_exact)
        for want_exact in (True, False) if exact_penalty else (False,):
            result = _synthesize_search(constraint, ancilla_namer, want_exact)
            if result is not None:
                return result
        return None

    @staticmethod
    def _ancilla_free_closed_form(constraint: Constraint) -> SynthesisResult | None:
        """The closed forms that never introduce ancillas."""
        names = [v.name for v in constraint.collection.unique]
        sel = constraint.selection.values
        if len(sel) == 1:
            qubo = _exactly_k(names, sel[0])
        elif len(sel) == 2 and sel[1] == sel[0] + 1:
            qubo = _two_point(names, sel[0], sel[1], len(names))
            if qubo is None:
                return None
        else:
            return None
        return SynthesisResult(qubo=qubo, ancillas=(), used_closed_form=True)


#: The shared closed-form strategy instance (also the ``penalty`` chain's
#: first tier).
CLOSED_FORM = ClosedFormStrategy()

#: Name → strategy, in registration (= tie-break) order.
_REGISTRY: dict[str, EncodingStrategy] = {}


def register_strategy(strategy: EncodingStrategy) -> EncodingStrategy:
    """Add ``strategy`` to the registry; duplicate names are an error.

    Registration order is load-bearing: it is the deterministic
    tie-break of the cost model, so the default strategy must be
    registered before any challenger.  Returns the strategy for
    expression-style registration.
    """
    if not strategy.name:
        raise ValueError("encoding strategies need a non-empty name")
    if strategy.name in _REGISTRY:
        raise ValueError(f"encoding strategy {strategy.name!r} already registered")
    _REGISTRY[strategy.name] = strategy
    return strategy


register_strategy(CLOSED_FORM)
register_strategy(PenaltyStrategy())
register_strategy(SlackStrategy())
register_strategy(SlackFreeStrategy())


def strategy_names(competing_only: bool = False) -> tuple[str, ...]:
    """Registered strategy names in tie-break order.

    ``competing_only`` restricts to strategies that generate their own
    candidates in ``best`` mode.
    """
    return tuple(
        name
        for name, strategy in _REGISTRY.items()
        if strategy.competes or not competing_only
    )


def get_strategy(name: str) -> EncodingStrategy:
    """Look up a registered strategy; unknown names raise ``ValueError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown encoding strategy {name!r} (known: {known})") from None


def encoding_modes() -> tuple[str, ...]:
    """Every value ``PipelineConfig.encoding`` accepts (modes + strategies)."""
    return SELECTION_MODES + strategy_names()


def tie_break_index(name: str) -> int:
    """The strategy's registry position — the stable cost-model tie-break."""
    return list(_REGISTRY).index(name)


@dataclass(frozen=True)
class EncodingCandidate:
    """One strategy's scored QUBO fragment for one constraint class.

    ``qubo``/``ancillas`` are the fragment itself (template-local names
    when produced by the pipeline); the three score axes and the
    combined ``cost`` drive selection; ``verified`` records the
    hard-dominance check (None = not checked, which is only acceptable
    for the default strategy).
    """

    strategy: str
    qubo: QUBO
    ancillas: tuple[str, ...]
    exact_penalty: bool
    used_closed_form: bool
    ancilla_count: int
    coupling_count: int
    coupling_density: float
    penalty_scale: float
    cost: float
    verified: bool | None = None
    source: str = "synthesized"

    def summary(self) -> "CandidateSummary":
        """The serializable provenance slice of this candidate."""
        return CandidateSummary(
            strategy=self.strategy,
            ancillas=self.ancilla_count,
            couplings=self.coupling_count,
            density=self.coupling_density,
            penalty_scale=self.penalty_scale,
            cost=self.cost,
            exact_penalty=self.exact_penalty,
            verified=self.verified,
            source=self.source,
        )


@dataclass(frozen=True)
class CandidateSummary:
    """Score card of one candidate, kept on the compiled program.

    Numbers only (no QUBO fragment), so decisions stay cheap to carry
    and trivially serializable for reports.
    """

    strategy: str
    ancillas: int
    couplings: int
    density: float
    penalty_scale: float
    cost: float
    exact_penalty: bool
    verified: bool | None
    source: str

    def describe(self) -> str:
        """One compact cell for the CLI decision table."""
        flags = ""
        if self.verified:
            flags += "✓"
        if self.exact_penalty:
            flags += "="
        return (
            f"{self.strategy}(anc={self.ancillas} dens={self.density:.2f} "
            f"scale={self.penalty_scale:g} cost={self.cost:.3g}{flags})"
        )


@dataclass(frozen=True)
class EncodingDecision:
    """Why one constraint class compiles under one strategy.

    ``constraint_indices`` aligns the decision with ``env.constraints``
    positions (every member of the template class); ``candidates`` holds
    the full scored field, ``selected``/``reason`` the outcome.
    ``exact_required`` records whether the class demanded an exact-GAP
    penalty (soft constraints) — the bit the NCK502 audit keys on.
    """

    constraint_indices: tuple[int, ...]
    mode: str
    selected: str
    reason: str
    candidates: tuple[CandidateSummary, ...]
    exact_required: bool = False

    @property
    def selected_summary(self) -> CandidateSummary | None:
        """The winning candidate's score card (None only if unscored)."""
        for candidate in self.candidates:
            if candidate.strategy == self.selected:
                return candidate
        return None

    def describe(self) -> str:
        """One human-readable line for the CLI decision table."""
        field = ", ".join(c.describe() for c in self.candidates)
        idx = ",".join(str(i) for i in self.constraint_indices)
        return f"[{idx}] {self.selected} ({self.reason}): {field}"


def score_fragment(
    strategy: str,
    qubo: QUBO,
    ancillas: tuple[str, ...],
    num_variables: int,
    exact_penalty: bool,
    used_closed_form: bool,
    verified: bool | None = None,
    source: str = "synthesized",
) -> EncodingCandidate:
    """Score one fragment into an :class:`EncodingCandidate`.

    ``num_variables`` is the constraint's unique-variable count
    (excluding ancillas); density is couplings over the possible pairs
    of the fragment's full node set.
    """
    ancilla_count = len(ancillas)
    nodes = num_variables + ancilla_count
    possible = nodes * (nodes - 1) // 2
    couplings = len(qubo.quadratic)
    density = couplings / possible if possible else 0.0
    scale = penalty_scale(qubo)
    return EncodingCandidate(
        strategy=strategy,
        qubo=qubo,
        ancillas=ancillas,
        exact_penalty=exact_penalty,
        used_closed_form=used_closed_form,
        ancilla_count=ancilla_count,
        coupling_count=couplings,
        coupling_density=density,
        penalty_scale=scale,
        cost=encoding_cost(ancilla_count, density, scale),
        verified=verified,
        source=source,
    )


def penalty_scale(qubo: QUBO) -> float:
    """The fragment's dynamic-range axis: its largest |coefficient|."""
    magnitudes = [abs(qubo.offset)]
    magnitudes.extend(abs(a) for a in qubo.linear.values())
    magnitudes.extend(abs(b) for b in qubo.quadratic.values())
    return max(magnitudes)


def encoding_cost(ancillas: int, density: float, scale: float) -> float:
    """The deterministic cost scalar: ``(1+anc)·(1+density)·(1+scale)``.

    Monotone in each axis the encoding papers trade against each other
    (qubit count, coupling density, penalty-scale headroom); the +1
    smoothing keeps a zero on one axis from hiding the others.  Lower is
    better; exact ties break by :func:`tie_break_index`.
    """
    return (1.0 + ancillas) * (1.0 + density) * (1.0 + scale)


def encode_candidate(
    name: str,
    constraint: Constraint,
    ancilla_namer,
    exact_penalty: bool,
    verify: bool = False,
) -> EncodingCandidate | None:
    """Run one strategy on one constraint and score the outcome.

    Returns None when the strategy is inapplicable or finds nothing.
    ``verify=True`` additionally runs the exhaustive/symmetric
    hard-dominance check and records it on the candidate — the gate
    every non-default selection must pass.
    """
    strategy = get_strategy(name)
    if not strategy.applies(constraint, exact_penalty):
        return None
    result = strategy.encode(constraint, ancilla_namer, exact_penalty)
    if result is None:
        return None
    verified = verify_constraint_qubo(constraint, result) if verify else None
    return score_fragment(
        strategy=name,
        qubo=result.qubo,
        ancillas=result.ancillas,
        num_variables=len(constraint.collection.unique),
        exact_penalty=result.exact_penalty,
        used_closed_form=result.used_closed_form,
        verified=verified,
    )


def rank_candidates(candidates: list[EncodingCandidate]) -> list[EncodingCandidate]:
    """Cost order with the stable registry tie-break."""
    return sorted(candidates, key=lambda c: (c.cost, tie_break_index(c.strategy)))


def select_candidate(
    candidates: list[EncodingCandidate],
    mode: str,
    exact_required: bool,
) -> tuple[EncodingCandidate, str]:
    """Pick the winning candidate under the portfolio rules.

    ``candidates`` must contain the default strategy's candidate (the
    strategy of last resort).  Selection:

    * a forced mode (``mode`` names a strategy) takes that strategy's
      candidate when present and verified, else falls back to the
      default with an explanatory reason;
    * ``best`` takes the cost-model minimum, skipping challengers that
      failed verification or that would degrade a soft constraint's
      exact penalty to an inexact one;
    * ``auto`` (and the degenerate single-candidate case) keeps the
      default.

    Returns ``(winner, reason)``; raises ``ValueError`` when no default
    candidate exists (a pipeline invariant violation, not a user error).
    """
    default = next(
        (c for c in candidates if c.strategy == DEFAULT_STRATEGY), None
    )
    if default is None:
        raise ValueError("candidate field is missing the default strategy")

    if mode == "auto" or len(candidates) == 1:
        return default, "default"

    if mode != "best":  # a forced strategy name
        forced = next((c for c in candidates if c.strategy == mode), None)
        if forced is None:
            return default, f"fallback: {mode} not applicable"
        if forced.strategy != DEFAULT_STRATEGY and forced.verified is False:
            return default, f"fallback: {mode} failed verification"
        return forced, "forced"

    default_exact = default.exact_penalty
    best: EncodingCandidate | None = None
    for candidate in rank_candidates(candidates):
        if candidate.strategy != DEFAULT_STRATEGY:
            if candidate.verified is not True:
                continue
            if exact_required and default_exact and not candidate.exact_penalty:
                continue
        best = candidate
        break
    if best is None or best.strategy == DEFAULT_STRATEGY:
        return default, "default retained"
    saved = default.ancilla_count - best.ancilla_count
    return best, f"cost {best.cost:.3g} < {default.cost:.3g} (saves {saved} ancillas)"
