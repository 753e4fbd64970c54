"""Concurrent solver-portfolio runtime with deadlines, retries, and ``solve()``.

The paper's pipeline fans one compiled QUBO out to three backends —
D-Wave-style annealing, QAOA on a gate-model device, and the exact
classical solver.  This package turns that fan-out into a first-class
runtime:

* :mod:`~repro.runtime.backends` — the :class:`Backend` protocol and
  adapters for the three solver stacks;
* :mod:`~repro.runtime.strategy` — the portfolio strategies: ``race``,
  ``ensemble``, ``fallback``;
* :mod:`~repro.runtime.policy` — robustness: per-backend deadlines,
  bounded retry with exponential backoff + jitter, graceful degradation
  to the classical solver;
* :mod:`~repro.runtime.executor` — :func:`solve`, the concurrent
  engine itself, plus :class:`HybridExecutor`, the shared
  thread/process substrate the solve-as-a-service scheduler
  (:mod:`repro.service`) dispatches job bodies onto;
* :mod:`~repro.runtime.records` — attempt-level provenance.

Typical use::

    from repro.runtime import solve

    result = solve(env, backends=["classical", "annealing"],
                   strategy="race", timeout=30.0, seed=2022)
    result.solution      # hard-feasible Solution
    result.winner        # which backend produced it
    result.attempts      # every attempt, including retries and timeouts

See ``docs/runtime.md`` for strategies, policies, and provenance fields.
"""

from .backends import (
    AnnealingBackend,
    Backend,
    BACKEND_FACTORIES,
    ClassicalBackend,
    QAOABackend,
    best_valid,
    make_backend,
    resolve_backends,
)
from .executor import HybridExecutor, solve
from .policy import BackendPolicy, PortfolioPolicy, RetryPolicy
from .records import AttemptRecord, PortfolioError, PortfolioResult
from .strategy import (
    ENSEMBLE,
    FALLBACK,
    RACE,
    STRATEGIES,
    Strategy,
    get_strategy,
    solution_order_key,
)

__all__ = [
    "AnnealingBackend",
    "AttemptRecord",
    "BACKEND_FACTORIES",
    "Backend",
    "BackendPolicy",
    "ClassicalBackend",
    "ENSEMBLE",
    "FALLBACK",
    "HybridExecutor",
    "PortfolioError",
    "PortfolioPolicy",
    "PortfolioResult",
    "QAOABackend",
    "RACE",
    "RetryPolicy",
    "STRATEGIES",
    "Strategy",
    "best_valid",
    "get_strategy",
    "make_backend",
    "resolve_backends",
    "solution_order_key",
    "solve",
]
