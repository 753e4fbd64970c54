"""Request and result value types of the solve service.

A :class:`SolveRequest` is everything one tenant asks for in one call:
the problem, the solving configuration (backends, strategy, deadline,
retries, seed), the compile options, and whether the memoizing request
path may serve it.  It is a plain frozen-ish dataclass so ``mode=
"process"`` services can pickle it across the pool boundary unchanged.

A :class:`ServiceResult` wraps the runtime's
:class:`~repro.runtime.records.PortfolioResult` with the service-side
provenance a client cares about: which tenant ran it, whether the
result and/or compiled program came out of a cache, how long the
request waited in the queue, and the compiled program's canonical
fingerprint (the result-cache key half, useful for cross-checking
against a :class:`~repro.analysis.certify.ProgramCertificate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..runtime.backends import backend_names
from ..runtime.strategy import get_strategy
from .cache import request_fingerprint, solver_signature

if TYPE_CHECKING:  # pragma: no cover
    from ..core.env import Env
    from ..runtime.records import PortfolioResult

__all__ = ["ServiceResult", "SolveRequest"]


@dataclass
class SolveRequest:
    """One tenant's solve call, as a value.

    ``problem`` is an :class:`~repro.core.env.Env` or any object with a
    ``build_env()`` method; ``backends`` / ``strategy`` / ``timeout`` /
    ``retries`` / ``seed`` mean exactly what they do on
    :func:`repro.runtime.solve`; ``compile_kwargs`` is forwarded to
    :meth:`Env.to_qubo` on a compile-cache miss; ``use_cache=False``
    opts this request out of both memoization tiers (it still pays
    admission control).  ``tenant`` is the admission-control identity.
    """

    problem: Any
    tenant: str = "default"
    backends: Any = ("classical",)
    strategy: Any = "race"
    timeout: float | None = None
    retries: int | None = None
    seed: int | None = None
    compile_kwargs: dict = field(default_factory=dict)
    use_cache: bool = True

    def env(self) -> "Env":
        """The request's :class:`~repro.core.env.Env` (building it if
        ``problem`` is a problem instance)."""
        problem = self.problem
        return problem.build_env() if hasattr(problem, "build_env") else problem

    def fingerprint(self) -> str:
        """Canonical program-cache key: constraints + compile options."""
        return request_fingerprint(self.env(), self.compile_kwargs)

    def signature(self) -> str:
        """The solving-configuration half of the result-cache key.

        Backends enter by name (:func:`~repro.runtime.backends.backend_names`),
        so computing it on the event loop builds no hardware.
        """
        return solver_signature(
            backend_names(self.backends),
            get_strategy(self.strategy),
            self.timeout,
            self.retries,
            self.seed,
        )


@dataclass
class ServiceResult:
    """A finished service request: the runtime result plus provenance.

    ``cache_hit`` marks a result-cache hit (no compile, no solve — the
    stored :class:`~repro.runtime.records.PortfolioResult` object is
    returned as-is, so hit and miss are byte-identical); ``compile_hit``
    marks a program-cache hit (compile skipped, solve still ran).
    ``queued_s`` is the time spent waiting in the scheduler (0 for
    cache hits, which never queue) and ``wall_s`` the full
    admission-to-answer latency the tenant observed.
    """

    result: "PortfolioResult"
    tenant: str
    cache_hit: bool = False
    compile_hit: bool = False
    queued_s: float = 0.0
    wall_s: float = 0.0
    program_fingerprint: str | None = None

    @property
    def solution(self):
        """The winning :class:`~repro.core.solution.Solution`."""
        return self.result.solution

    def provenance(self) -> dict:
        """Service-side provenance (mirrors the runtime's convention)."""
        return {
            "tenant": self.tenant,
            "cache_hit": self.cache_hit,
            "compile_hit": self.compile_hit,
            "queued_s": self.queued_s,
            "wall_s": self.wall_s,
            "program_fingerprint": self.program_fingerprint,
            "winner": self.result.winner,
        }
