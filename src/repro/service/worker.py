"""The job body: one compile-if-needed + portfolio solve, pool-side.

:func:`execute_request` is deliberately a **module-level function of
plain-data arguments** so the scheduler can dispatch it to either pool
of the shared :class:`~repro.runtime.executor.HybridExecutor`: thread
mode hands it the live objects, process mode pickles the request (and
the cached :class:`~repro.compile.program.CompiledProgram`, when the
front-end had one) across the pool boundary.

The nested :func:`repro.runtime.solve` call runs its attempts on its
own per-call pool: job bodies already occupy shared-executor threads,
and borrowing more of them for portfolio attempts could deadlock the
pool against itself (every worker waiting for an attempt slot another
worker holds).  The private attempt pool keeps the two layers' budgets
independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..runtime.executor import solve

if TYPE_CHECKING:  # pragma: no cover
    from ..compile.program import CompiledProgram
    from ..runtime.records import PortfolioResult
    from .jobs import SolveRequest

__all__ = ["execute_request"]


def execute_request(
    request: "SolveRequest", program: "CompiledProgram | None" = None
) -> "tuple[CompiledProgram, PortfolioResult]":
    """Run one admitted request to completion; returns ``(program, result)``.

    ``program`` is the front-end's program-cache hit, or ``None`` on a
    cold request — in which case the compile happens here, on the pool,
    and the returned program is what the front-end inserts into its
    cache.  Raises whatever the compiler or runtime raises
    (:class:`~repro.core.types.UnsatisfiableError`,
    :class:`~repro.runtime.records.PortfolioError`, ...); the scheduler
    forwards the exception to the awaiting client verbatim.
    """
    env = request.env()
    if program is None:
        program = env.to_qubo(**request.compile_kwargs)
    result = solve(
        env,
        backends=request.backends,
        strategy=request.strategy,
        timeout=request.timeout,
        retries=request.retries,
        seed=request.seed,
        program=program,
    )
    return program, result
