"""The portfolio engine: ``solve()``, its event loop, and ``HybridExecutor``.

One compiled program fans out across the call's own
``concurrent.futures`` thread pool, one worker task per backend
*attempt*.  The orchestrator (the calling thread) owns all scheduling
decisions — launches, per-attempt deadlines, retry backoff, loser
cancellation, the overall deadline — so a worker that hangs can never
stall the portfolio: the orchestrator
simply stops waiting for it at its deadline, signals cooperative
cancellation, and moves on.  Abandoned attempts finish (or notice the
cancel signal) in the background; their late results are discarded.

Reproducibility: one root ``numpy.random.SeedSequence`` is spawned into
independent child streams — one per backend attempt, plus one jitter
stream per backend — so no two attempts ever share RNG state and a
seeded portfolio run is exactly repeatable, retries and all.

Everything the engine does is recorded through :mod:`repro.telemetry`
(``runtime.*`` spans, counters, and histograms; see
``docs/observability.md``) and returned as provenance on the
:class:`~repro.runtime.records.PortfolioResult`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent import futures as cf
from typing import Iterable

import numpy as np

from .. import telemetry
from ..core.types import UnsatisfiableError
from .backends import ClassicalBackend, best_valid, resolve_backends
from .policy import PortfolioPolicy
from .records import AttemptRecord, PortfolioError, PortfolioResult
from .strategy import Strategy, get_strategy


class HybridExecutor:
    """Shared thread + process execution substrate for service job bodies.

    One object owns both pools the :mod:`repro.service` scheduler
    dispatches whole compile+solve jobs onto:

    * a **thread pool** — job bodies run here with ``mode="thread"``,
      sharing the live objects of the request;
    * a **process pool** — created lazily, for CPU-bound jobs with
      ``mode="process"``, sidestepping the GIL across tenants.

    Portfolio attempts never run here: each :func:`solve` call starts
    its own attempt pool, so a job body waiting on its attempts cannot
    deadlock the pool it occupies.

    Both pools are lazy: an executor that only ever runs thread work
    never forks a process, and vice versa.  :meth:`submit` is the
    synchronous entry point; :meth:`run` wraps the same future for
    ``await``-ing from an asyncio event loop, which is what lets the
    async service front-end wait on blocking job bodies.  Use as a
    context manager, or call :meth:`shutdown`.
    """

    def __init__(
        self,
        max_threads: int | None = None,
        max_processes: int | None = None,
        thread_name_prefix: str = "repro-runtime",
    ) -> None:
        """Configure (but do not yet start) the two pools.

        ``max_threads`` bounds the thread pool (default: ``os.cpu_count()
        + 4``, the stdlib heuristic), ``max_processes`` the process pool
        (default: ``os.cpu_count()``), and ``thread_name_prefix`` labels
        worker threads for debuggability.
        """
        self._max_threads = max_threads
        self._max_processes = max_processes
        self._thread_name_prefix = thread_name_prefix
        self._threads: cf.ThreadPoolExecutor | None = None
        self._processes: cf.ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def threads(self) -> cf.ThreadPoolExecutor:
        """The thread pool, created on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("HybridExecutor is shut down")
            if self._threads is None:
                self._threads = cf.ThreadPoolExecutor(
                    max_workers=self._max_threads,
                    thread_name_prefix=self._thread_name_prefix,
                )
            return self._threads

    @property
    def processes(self) -> cf.ProcessPoolExecutor:
        """The process pool, created on first use.

        Work submitted here must be picklable (module-level functions and
        plain-data arguments); results travel back by pickle too.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("HybridExecutor is shut down")
            if self._processes is None:
                self._processes = cf.ProcessPoolExecutor(
                    max_workers=self._max_processes
                )
            return self._processes

    def submit(self, fn, /, *args, mode: str = "thread", **kwargs) -> cf.Future:
        """Submit ``fn(*args, **kwargs)`` to the pool named by ``mode``
        (``"thread"`` or ``"process"``) and return its future."""
        if mode == "thread":
            return self.threads.submit(fn, *args, **kwargs)
        if mode == "process":
            return self.processes.submit(fn, *args, **kwargs)
        raise ValueError(f"unknown execution mode {mode!r} (thread|process)")

    async def run(self, fn, /, *args, mode: str = "thread", **kwargs):
        """Await ``fn(*args, **kwargs)`` on the pool named by ``mode``.

        The asyncio bridge: submits exactly like :meth:`submit` but
        returns an awaitable, so event-loop code (the service scheduler)
        can fan work onto the shared pools without blocking the loop.
        """
        return await asyncio.wrap_future(self.submit(fn, *args, mode=mode, **kwargs))

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    def shutdown(self, wait: bool = False) -> None:
        """Shut down both pools (idempotent).

        ``wait=False`` (default) abandons in-flight thread work the same
        way the portfolio engine does; process-pool shutdown always
        joins its workers.
        """
        with self._lock:
            self._closed = True
            threads, self._threads = self._threads, None
            processes, self._processes = self._processes, None
        if threads is not None:
            threads.shutdown(wait=wait)
        if processes is not None:
            processes.shutdown(wait=True)

    def __enter__(self) -> "HybridExecutor":
        """Context-manager entry: returns the executor itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: shuts both pools down."""
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"HybridExecutor({state}, threads="
            f"{'live' if self._threads else 'lazy'}, processes="
            f"{'live' if self._processes else 'lazy'})"
        )


def _attempt_task(backend, env, program, rng, cancel, attempt):
    """Worker-thread body for one backend attempt.

    Returns ``(kind, payload, wall_s)`` with ``kind`` one of ``ok``
    (payload: sample set), ``error`` / ``unsat`` (payload: exception), or
    ``cancelled`` (the cancel signal was set before the backend started).
    Exceptions are returned, not raised, so the orchestrator never has to
    touch a future that might also be abandoned.
    """
    start = time.perf_counter()
    if cancel.is_set():
        return ("cancelled", None, 0.0)
    try:
        with telemetry.span("runtime.attempt", backend=backend.name, attempt=attempt):
            samples = backend.sample(env, rng=rng, program=program)
    except UnsatisfiableError as exc:
        return ("unsat", exc, time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - the whole point is containment
        return ("error", exc, time.perf_counter() - start)
    wall = time.perf_counter() - start
    telemetry.observe("runtime.attempt_seconds", wall)
    return ("ok", samples, wall)


class _BackendState:
    """Orchestrator-side bookkeeping for one backend in the portfolio."""

    def __init__(self, index, backend, policy, seed_parent):
        self.index = index
        self.backend = backend
        self.policy = policy
        self.seed_parent = seed_parent
        self.jitter_rng = np.random.default_rng(seed_parent.spawn(1)[0])
        self.cancel = threading.Event()
        self.attempts = 0
        self.max_attempts = policy.max_attempts(getattr(backend, "deterministic", False))
        self.future: cf.Future | None = None
        self.deadline: float | None = None
        self.launched_at = 0.0
        self.ready_at: float | None = 0.0  # None = not scheduled
        self.finished = False

    def signal_cancel(self) -> None:
        """Set the cooperative cancel flag and poke ``backend.cancel()``."""
        self.cancel.set()
        hook = getattr(self.backend, "cancel", None)
        if callable(hook):
            hook()


def _run_portfolio(env, program, backends, strategy, policy, seed_root, seed_label, pool):
    """The engine event loop; returns a finished :class:`PortfolioResult`."""
    t0 = time.perf_counter()
    total_deadline = t0 + policy.total_timeout if policy.total_timeout else None
    spawn = seed_root.spawn(len(backends))
    states = [
        _BackendState(i, b, policy.for_backend(b.name), spawn[i])
        for i, b in enumerate(backends)
    ]
    active_limit = len(states) if strategy.concurrent else 1
    records: list[AttemptRecord] = []
    candidates: list = []  # (Solution, backend name), completion order
    unsat: UnsatisfiableError | None = None

    def launch(st: _BackendState, now: float) -> None:
        st.attempts += 1
        rng = np.random.default_rng(st.seed_parent.spawn(1)[0])
        st.future = pool.submit(
            _attempt_task, st.backend, env, program, rng, st.cancel, st.attempts
        )
        st.launched_at = now
        st.deadline = now + st.policy.timeout if st.policy.timeout else None
        st.ready_at = None
        telemetry.count("runtime.attempts")

    def abandon(st: _BackendState, now: float, status: str) -> None:
        """Stop waiting for a running attempt (timeout or cancellation)."""
        st.future.cancel()
        st.signal_cancel()
        records.append(
            AttemptRecord(
                backend=st.backend.name,
                attempt=st.attempts,
                status=status,
                wall_s=max(0.0, now - st.launched_at),
            )
        )
        telemetry.count(f"runtime.{'timeouts' if status == 'timeout' else 'cancelled'}")
        st.future = None
        st.finished = True

    def certificate_check(sol) -> dict:
        """Cross-check a hard-feasible solution against the certificate.

        When the compiled program carries a
        :class:`~repro.analysis.certify.ProgramCertificate`, the
        backend-reported energy must stay out of the proven infeasible
        band; an answer inside it is flagged (and counted under
        ``runtime.certificate_violations``) rather than rejected, since
        some backends report energies at unminimized ancillas.
        """
        certificate = getattr(program, "certificate", None)
        if certificate is None:
            return {}
        from ..analysis.certify import check_energy

        status = check_energy(certificate, sol.energy)
        if status not in ("consistent", "uncertified"):
            telemetry.count("runtime.certificate_violations")
        return {"certificate": status}

    def process(st: _BackendState, outcome, now: float) -> None:
        nonlocal unsat
        kind, payload, wall = outcome
        if kind == "ok":
            sol = best_valid(payload)
            if sol is not None:
                records.append(
                    AttemptRecord(
                        backend=st.backend.name,
                        attempt=st.attempts,
                        status="ok",
                        wall_s=wall,
                        soft_satisfied=sol.soft_satisfied,
                        energy=sol.energy,
                        metadata=certificate_check(sol),
                    )
                )
                candidates.append((sol, st.backend.name))
                st.finished = True
                return
            # Completed, but every sample violates a hard constraint.
            if st.attempts < st.max_attempts and not st.cancel.is_set():
                delay = st.policy.retry.delay(st.attempts, st.jitter_rng)
                records.append(
                    AttemptRecord(st.backend.name, st.attempts, "invalid", wall_s=wall)
                )
                st.ready_at = now + delay
                telemetry.count("runtime.retries")
            else:
                records.append(
                    AttemptRecord(st.backend.name, st.attempts, "invalid", wall_s=wall)
                )
                st.finished = True
        elif kind == "unsat":
            unsat = payload
            st.finished = True
        elif kind == "cancelled":
            records.append(
                AttemptRecord(st.backend.name, st.attempts, "cancelled", wall_s=wall)
            )
            telemetry.count("runtime.cancelled")
            st.finished = True
        else:  # error
            records.append(
                AttemptRecord(
                    st.backend.name,
                    st.attempts,
                    "error",
                    wall_s=wall,
                    error=f"{type(payload).__name__}: {payload}",
                )
            )
            telemetry.count("runtime.errors")
            st.finished = True

    while True:
        now = time.perf_counter()
        if total_deadline is not None and now >= total_deadline:
            for st in states:
                if st.future is not None:
                    abandon(st, now, "timeout")
                st.finished = True
            break
        if unsat is not None or (strategy.stop_on_first_valid and candidates):
            break
        active = [st for st in states if not st.finished][:active_limit]
        if not active:
            break
        for st in active:
            if st.future is None and st.ready_at is not None and st.ready_at <= now:
                launch(st, now)
        pending = {st.future: st for st in states if st.future is not None}
        if not pending:
            wakeups = [st.ready_at for st in active if st.ready_at is not None]
            if not wakeups:  # every active backend is drained
                break
            time.sleep(min(0.25, max(0.0, min(wakeups) - now)))
            continue
        bounds = [st.deadline for st in pending.values() if st.deadline is not None]
        bounds += [st.ready_at for st in active if st.future is None and st.ready_at]
        if total_deadline is not None:
            bounds.append(total_deadline)
        wait_timeout = max(0.0, min(bounds) - now) if bounds else None
        done, _ = cf.wait(pending, timeout=wait_timeout, return_when=cf.FIRST_COMPLETED)
        now = time.perf_counter()
        for fut in sorted(done, key=lambda f: pending[f].index):
            st = pending[fut]
            st.future = None
            process(st, fut.result(), now)
        for st in states:
            if st.future is not None and st.deadline is not None and now >= st.deadline:
                abandon(st, now, "timeout")

    # Cancel whatever is still in flight (race losers, post-unsat work).
    now = time.perf_counter()
    for st in states:
        if st.future is not None:
            abandon(st, now, "cancelled")
        st.finished = True
    if unsat is not None:
        raise unsat

    degraded = False
    if not candidates and policy.degrade_to_classical and not any(
        getattr(b, "is_exact", False) for b in backends
    ):
        telemetry.count("runtime.degraded")
        fallback = ClassicalBackend()
        outcome = _attempt_task(
            fallback, env, program, None, threading.Event(), 1
        )
        kind, payload, wall = outcome
        if kind == "unsat":
            raise payload
        if kind == "ok":
            sol = best_valid(payload)
            if sol is not None:
                records.append(
                    AttemptRecord(
                        fallback.name,
                        1,
                        "ok",
                        wall_s=wall,
                        soft_satisfied=sol.soft_satisfied,
                        energy=sol.energy,
                        metadata=certificate_check(sol),
                    )
                )
                candidates.append((sol, fallback.name))
                degraded = True
        if not degraded and kind == "error":
            records.append(
                AttemptRecord(fallback.name, 1, "error", wall_s=wall, error=str(payload))
            )

    if not candidates:
        raise PortfolioError(
            "no backend produced a hard-feasible solution "
            f"({len(records)} attempts: "
            + ", ".join(f"{r.backend}#{r.attempt}={r.status}" for r in records)
            + ")",
            records,
        )

    solution = strategy.select([sol for sol, _ in candidates])
    winner = next(name for sol, name in candidates if sol is solution)
    telemetry.count(f"runtime.win.{winner}")
    result = PortfolioResult(
        solution=solution,
        winner=winner,
        strategy=strategy.name,
        wall_s=time.perf_counter() - t0,
        seed=seed_label,
        attempts=records,
        candidates=[sol for sol, _ in candidates],
        degraded=degraded,
    )
    solution.metadata["portfolio"] = result.provenance()
    return result


def solve(
    problem,
    *,
    backends: Iterable | str = ("classical", "annealing"),
    strategy: str | Strategy = "race",
    policy: PortfolioPolicy | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    seed: int | np.random.SeedSequence | None = None,
    compile_kwargs: dict | None = None,
    program=None,
) -> PortfolioResult:
    """Solve an NchooseK program with a concurrent backend portfolio.

    Parameters
    ----------
    problem:
        An :class:`~repro.core.env.Env`, or any object with a
        ``build_env()`` method (every ``repro.problems`` instance).
    backends:
        Backend specs — a comma-separated string, or an iterable of
        registry names (``classical``, ``annealing``, ``qaoa``) and/or
        objects satisfying the :class:`~repro.runtime.backends.Backend`
        protocol.  The program is compiled to a QUBO once and shared.
    strategy:
        ``race`` (first hard-feasible result wins, losers cancelled),
        ``ensemble`` (all results merged, best kept), or ``fallback``
        (ordered, each backend under its deadline) — or a
        :class:`~repro.runtime.strategy.Strategy` instance.
    policy:
        Full :class:`~repro.runtime.policy.PortfolioPolicy`.  Mutually
        exclusive with the ``timeout`` / ``retries`` shorthands.
    timeout:
        Shorthand: per-backend attempt deadline in seconds.
    retries:
        Shorthand: total attempts allowed per stochastic backend.
    seed:
        Root seed (int or ``numpy.random.SeedSequence``).  Child streams
        are spawned per backend and per attempt via ``SeedSequence.spawn``,
        so backends never share RNG state and seeded runs are exactly
        reproducible.  ``None`` draws fresh OS entropy.
    compile_kwargs:
        Forwarded to :meth:`Env.to_qubo` for the one-time compilation.
        Ignored when ``program`` is supplied.
    program:
        A :class:`~repro.compile.program.CompiledProgram` previously
        compiled from the same problem.  Supplying one skips the
        compile step entirely — this is the memoized request path of
        :mod:`repro.service`, where a fingerprint hit reuses the cached
        artifact instead of recompiling.

    Attempts always run on the call's own thread pool, which is shut
    down (without waiting for abandoned attempts) before returning.  A
    caller that is itself a pool worker, such as a service job body,
    therefore never waits on an attempt slot of its own pool.

    Returns a :class:`~repro.runtime.records.PortfolioResult`; raises
    :class:`~repro.core.types.UnsatisfiableError` when a backend proves
    the hard constraints unsatisfiable, and
    :class:`~repro.runtime.records.PortfolioError` when every backend
    (and the degradation path, if enabled) fails.
    """
    if policy is not None and (timeout is not None or retries is not None):
        raise ValueError("pass either policy or the timeout/retries shorthands, not both")
    if policy is None:
        policy = PortfolioPolicy.with_timeout(timeout, retries)
    env = problem.build_env() if hasattr(problem, "build_env") else problem
    backend_list = resolve_backends(backends)
    strat = get_strategy(strategy)
    if isinstance(seed, np.random.SeedSequence):
        seed_root = seed
        seed_label = seed.entropy if isinstance(seed.entropy, int) else None
    else:
        seed_root = np.random.SeedSequence(seed)
        seed_label = seed
    if program is None:
        program = env.to_qubo(**(compile_kwargs or {}))

    pool = cf.ThreadPoolExecutor(
        max_workers=max(2, 2 * len(backend_list)),
        thread_name_prefix="repro-runtime",
    )
    try:
        with telemetry.span(
            "runtime.solve",
            strategy=strat.name,
            backends=",".join(b.name for b in backend_list),
            seed=seed_label,
        ) as span:
            result = _run_portfolio(
                env, program, backend_list, strat, policy, seed_root, seed_label, pool
            )
            span.set(winner=result.winner, attempts=result.num_attempts)
            return result
    finally:
        pool.shutdown(wait=False)

