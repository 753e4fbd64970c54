"""The :class:`Backend` protocol and adapters for the three solver stacks.

A runtime backend is anything with a ``name``, a ``deterministic`` flag,
and a ``sample(env, rng=..., program=...)`` method returning a
:class:`~repro.core.solution.SampleSet` — which the repo's three solvers
(:class:`~repro.classical.nck_solver.ExactNckSolver`,
:class:`~repro.annealing.device.AnnealingDevice`,
:class:`~repro.circuit.device.CircuitDevice`) already satisfy.  The thin
adapters here exist to pin per-run configuration (read counts, device
profiles) behind a uniform constructor and to give the portfolio
human-stable names to report provenance against.

Backends may optionally expose:

* ``is_exact`` — the backend proves optimality/unsatisfiability (the
  classical solver); the runtime uses this to decide whether graceful
  degradation needs to add one;
* ``cancel()`` — cooperative cancellation: called when the backend loses
  a race or blows its deadline.  The bundled simulators run uninterruptible
  numeric kernels and ignore it; remote/cooperative backends should stop
  early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.solution import SampleSet, Solution

if TYPE_CHECKING:  # pragma: no cover
    from ..compile.program import CompiledProgram
    from ..core.env import Env


@runtime_checkable
class Backend(Protocol):
    """Structural protocol every portfolio backend must satisfy."""

    #: Human-stable identifier stamped on solutions and provenance.
    name: str
    #: Whether repeated runs on the same input yield the same output
    #: (deterministic backends are never retried).
    deterministic: bool

    def sample(
        self,
        env: "Env",
        *,
        rng: np.random.Generator | None = None,
        program: "CompiledProgram | None" = None,
    ) -> SampleSet:
        """Execute ``env`` (optionally precompiled as ``program``) once.

        ``rng`` is the backend's private random stream for this attempt;
        implementations must draw all randomness from it so portfolio
        runs are reproducible.
        """
        ...


class ClassicalBackend:
    """Adapter around the exact branch-and-bound solver.

    The solver is deterministic and proves optimality, so it doubles as
    the runtime's graceful-degradation target.
    """

    deterministic = True
    is_exact = True
    #: The name every instance reports (the exact solver's).
    default_name = "classical-exact"

    def __init__(self, node_limit: int = 50_000_000) -> None:
        """Configure the underlying solver's ``node_limit`` safety valve."""
        from ..classical.nck_solver import ExactNckSolver

        self.solver = ExactNckSolver(node_limit=node_limit)
        self.name = self.solver.name

    def sample(self, env, *, rng=None, program=None) -> SampleSet:
        """Solve ``env`` exactly; ``rng`` and ``program`` are accepted for
        protocol symmetry (the search uses neither)."""
        return self.solver.sample(env, rng=rng, program=program)


class AnnealingBackend:
    """Adapter around the simulated D-Wave annealing device."""

    deterministic = False
    #: The name of the default device, the Advantage-4.1 stand-in.
    default_name = "advantage-4.1-sim"

    def __init__(
        self,
        device=None,
        num_reads: int | None = None,
        noiseless: bool = False,
    ) -> None:
        """Wrap ``device`` (default: an Advantage-4.1 stand-in on the
        process's shared working graph, so building one is cheap).

        ``num_reads`` overrides the profile's per-job read count;
        ``noiseless`` selects the noise-free profile when no ``device``
        is supplied.
        """
        if device is None:
            from ..annealing.device import AnnealingDevice, AnnealingDeviceProfile

            device = AnnealingDevice(
                AnnealingDeviceProfile.advantage41(noiseless=noiseless)
            )
        self.device = device
        self.num_reads = num_reads
        self.name = device.name

    def sample(self, env, *, rng=None, program=None) -> SampleSet:
        """One annealing job for ``env`` (precompiled ``program`` reused if
        given), drawing embedding and anneal randomness from ``rng``."""
        return self.device.sample(
            env, num_reads=self.num_reads, rng=rng, program=program
        )


class QAOABackend:
    """Adapter around the simulated gate-model (QAOA) device."""

    deterministic = False
    #: The name of the default device, the ibmq-brooklyn stand-in.
    default_name = "ibmq-brooklyn-sim"

    def __init__(self, device=None, noiseless: bool = False) -> None:
        """Wrap ``device`` (default: a fresh ibmq-brooklyn stand-in);
        ``noiseless`` selects the noise-free profile when no ``device``
        is supplied."""
        if device is None:
            from ..circuit.device import CircuitDevice, CircuitDeviceProfile

            device = CircuitDevice(CircuitDeviceProfile.brooklyn(noiseless=noiseless))
        self.device = device
        self.name = device.name

    def sample(self, env, *, rng=None, program=None) -> SampleSet:
        """One QAOA execution of ``env`` (precompiled ``program`` reused if
        given), drawing shot/optimizer randomness from ``rng``."""
        return self.device.sample(env, rng=rng, program=program)


#: Canonical spec names (plus aliases) accepted by :func:`make_backend`.
BACKEND_FACTORIES = {
    "classical": ClassicalBackend,
    "exact": ClassicalBackend,
    "annealing": AnnealingBackend,
    "anneal": AnnealingBackend,
    "dwave": AnnealingBackend,
    "qaoa": QAOABackend,
    "circuit": QAOABackend,
}


def _factory(name: str):
    """The adapter class registered under ``name``."""
    try:
        return BACKEND_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(set(BACKEND_FACTORIES)))
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None


def make_backend(spec, **kwargs) -> Backend:
    """Build a backend from ``spec``.

    ``spec`` may be a name from :data:`BACKEND_FACTORIES` (``classical``,
    ``annealing``, ``qaoa``, or an alias) — remaining keyword arguments
    (``kwargs``) flow to the adapter constructor — or an object already
    satisfying the :class:`Backend` protocol, returned unchanged.
    """
    if isinstance(spec, str):
        return _factory(spec)(**kwargs)
    if isinstance(spec, Backend):
        return spec
    raise TypeError(
        f"backend spec must be a name or a Backend-protocol object, got {spec!r}"
    )


def _parse_specs(specs: Iterable | str) -> list:
    """``specs`` as a list: a comma-separated string splits into names."""
    if isinstance(specs, str):
        return [s.strip() for s in specs.split(",") if s.strip()]
    return list(specs)


def _checked_names(names: list[str]) -> list[str]:
    """``names``, unless there are none or two are equal."""
    if not names:
        raise ValueError("at least one backend is required")
    if len(set(names)) != len(names):
        raise ValueError(f"backend names must be unique, got {names}")
    return names


def resolve_backends(specs: Iterable | str) -> list[Backend]:
    """Normalize ``specs`` — a comma-separated string, or an iterable of
    names and/or backend objects — into a list of backends."""
    backends = [make_backend(s) for s in _parse_specs(specs)]
    _checked_names([b.name for b in backends])
    return backends


def backend_names(specs: Iterable | str) -> list[str]:
    """The names :func:`resolve_backends` gives ``specs``, building nothing.

    A name spec contributes its adapter's ``default_name``; a backend
    object its ``name``.  Raises the same errors as
    :func:`resolve_backends`.
    """
    return _checked_names(
        [
            _factory(s).default_name if isinstance(s, str) else make_backend(s).name
            for s in _parse_specs(specs)
        ]
    )


def best_valid(samples: SampleSet | Sequence[Solution]) -> Solution | None:
    """The lowest-energy hard-feasible solution, or ``None`` if there is
    none in ``samples`` (a sample set or a plain solution sequence)."""
    for sol in samples:
        if sol.all_hard_satisfied:
            return sol
    return None
