"""The NchooseK programming environment.

An :class:`Env` collects Boolean variables and ``nck`` constraints into a
*generalized NchooseK program* (Definition 6): a conjunction of hard and
soft constraints.  Executing the program produces an assignment that
satisfies every hard constraint while maximizing the number of satisfied
soft constraints, or reports that none exists.

The environment is backend-agnostic.  ``env.solve(backend)`` accepts any
object implementing the :class:`~repro.runtime.backends.Backend`
protocol — the classical exact solver, the annealing-device simulator,
or the circuit-device (QAOA) simulator — mirroring the paper's
portability goal; :func:`repro.runtime.solve` runs a whole portfolio of
them concurrently.

Blocks
------
Real NchooseK programs compose repeated sub-structures.  :class:`Block`
provides the original DSL's mechanism: a reusable constraint template with
named *ports* that is instantiated onto fresh or shared environment
variables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .types import Constraint, NckError, Var, nck as _nck

if TYPE_CHECKING:  # pragma: no cover
    from ..qubo.model import QUBO
    from .solution import Solution


class Env:
    """Container for variables and constraints of one NchooseK program."""

    def __init__(self) -> None:
        self._vars: dict[str, Var] = {}
        self._constraints: list[Constraint] = []
        self._fresh_counter = 0

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def register_port(self, name: str) -> Var:
        """Register (or look up) a named variable."""
        var = self._vars.get(name)
        if var is None:
            var = Var(name)
            self._vars[name] = var
        return var

    def register_ports(self, names: Iterable[str]) -> list[Var]:
        """Register several named variables at once."""
        return [self.register_port(n) for n in names]

    def new_var(self, prefix: str = "_anc") -> Var:
        """Create a fresh variable with a unique, reserved name."""
        while True:
            name = f"{prefix}{self._fresh_counter}"
            self._fresh_counter += 1
            if name not in self._vars:
                return self.register_port(name)

    @property
    def variables(self) -> tuple[Var, ...]:
        """All registered variables, in registration order."""
        return tuple(self._vars.values())

    @property
    def num_variables(self) -> int:
        """Number of registered variables."""
        return len(self._vars)

    def __contains__(self, var: Var | str) -> bool:
        name = var.name if isinstance(var, Var) else var
        return name in self._vars

    # ------------------------------------------------------------------
    # Constraint management
    # ------------------------------------------------------------------
    def nck(
        self,
        collection: Iterable[Var | str],
        selection: Iterable[int],
        soft: bool = False,
    ) -> Constraint:
        """Add the constraint ``nck(collection, selection[, soft])``.

        Parameters
        ----------
        collection:
            The variables constrained together (they may repeat).  String
            elements are registered as ports; :class:`~repro.core.types.Var`
            elements must already belong to the environment.
        selection:
            The admissible counts of TRUE variables — any iterable of
            non-negative integers (a `range` works).
        soft:
            If True the constraint is desired but not required
            (Section IV-C): execution satisfies every hard constraint and
            as many soft constraints as possible.

        Returns the added :class:`~repro.core.types.Constraint`.
        """
        resolved: list[Var] = []
        for v in collection:
            if isinstance(v, str):
                resolved.append(self.register_port(v))
            elif isinstance(v, Var):
                if v.name not in self._vars:
                    raise NckError(f"variable {v} is not registered in this environment")
                resolved.append(v)
            else:
                raise TypeError(f"expected Var or str, got {type(v).__name__}")
        constraint = _nck(resolved, selection, soft=soft)
        self._constraints.append(constraint)
        return constraint

    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Add a pre-built constraint, registering its variables."""
        for v in constraint.variables:
            self.register_port(v.name)
        self._constraints.append(constraint)
        return constraint

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """All constraints (hard and soft), in insertion order."""
        return tuple(self._constraints)

    @property
    def hard_constraints(self) -> tuple[Constraint, ...]:
        """The required constraints, in insertion order."""
        return tuple(c for c in self._constraints if not c.soft)

    @property
    def soft_constraints(self) -> tuple[Constraint, ...]:
        """The desired-but-not-required constraints, in insertion order."""
        return tuple(c for c in self._constraints if c.soft)

    @property
    def num_constraints(self) -> int:
        """Total constraint count, hard plus soft."""
        return len(self._constraints)

    # ------------------------------------------------------------------
    # Convenience constraint builders (common idioms from the paper)
    # ------------------------------------------------------------------
    def same(self, a: Var | str, b: Var | str, soft: bool = False) -> Constraint:
        """``a == b``: neither or both TRUE — ``nck({a,b},{0,2})``."""
        return self.nck([a, b], [0, 2], soft=soft)

    def different(self, a: Var | str, b: Var | str, soft: bool = False) -> Constraint:
        """``a != b``: exactly one TRUE — ``nck({a,b},{1})``."""
        return self.nck([a, b], [1], soft=soft)

    def either(self, a: Var | str, b: Var | str, soft: bool = False) -> Constraint:
        """``a or b``: at least one TRUE — ``nck({a,b},{1,2})``."""
        return self.nck([a, b], [1, 2], soft=soft)

    def exactly(self, collection: Sequence[Var | str], k: int, soft: bool = False) -> Constraint:
        """Exactly ``k`` of the collection TRUE."""
        return self.nck(collection, [k], soft=soft)

    def at_least(self, collection: Sequence[Var | str], k: int, soft: bool = False) -> Constraint:
        """At least ``k`` of the collection TRUE."""
        n = len(list(collection))
        return self.nck(collection, range(k, n + 1), soft=soft)

    def at_most(self, collection: Sequence[Var | str], k: int, soft: bool = False) -> Constraint:
        """At most ``k`` of the collection TRUE."""
        return self.nck(collection, range(0, k + 1), soft=soft)

    def prefer_false(self, var: Var | str) -> Constraint:
        """Minimization idiom of Section IV-C: ``nck({v},{0},soft)``."""
        return self.nck([var], [0], soft=True)

    def prefer_true(self, var: Var | str) -> Constraint:
        """Maximization idiom of Section IV-C: ``nck({v},{1},soft)``."""
        return self.nck([var], [1], soft=True)

    # ------------------------------------------------------------------
    # Evaluation and execution
    # ------------------------------------------------------------------
    def satisfied_counts(
        self, assignment: Mapping[Var, bool] | Mapping[str, bool]
    ) -> tuple[int, int]:
        """Return ``(hard_satisfied, soft_satisfied)`` under ``assignment``."""
        hard = soft = 0
        for c in self._constraints:
            if c.is_satisfied(assignment):
                if c.soft:
                    soft += 1
                else:
                    hard += 1
        return hard, soft

    def to_qubo(
        self,
        *,
        hard_scale: float | None = None,
        disk_cache: bool | None = None,
        cache_dir: str | None = None,
        certify: bool = False,
        encoding: str = "auto",
    ) -> "QUBO":
        """Compile the whole program to a QUBO (Section V).

        Delegates to :func:`repro.compile.program.compile_program`, which
        documents the options in full: ``hard_scale`` overrides the
        hard-constraint scaling factor, ``disk_cache`` / ``cache_dir``
        control the persistent on-disk template store, ``certify``
        (default off) runs the certification post-pass that proves hard
        dominance and soft fidelity of the compiled artifact, and
        ``encoding`` selects the per-constraint encoding portfolio mode
        (``"auto"``, ``"best"``, or a forced strategy name).  Unknown or
        contradictory options raise ``ValueError`` up front.
        """
        from ..compile.program import compile_program

        return compile_program(
            self,
            hard_scale=hard_scale,
            disk_cache=disk_cache,
            cache_dir=cache_dir,
            certify=certify,
            encoding=encoding,
        )

    def solve(self, backend=None, **kwargs) -> "Solution":
        """Execute the program on ``backend`` (default: classical exact).

        Returns the best :class:`~repro.core.solution.Solution` found.
        Raises :class:`~repro.core.types.UnsatisfiableError` if the backend
        proves no assignment satisfies all hard constraints (only the
        classical backend can prove this).
        """
        if backend is None:
            from ..classical.nck_solver import ExactNckSolver

            backend = ExactNckSolver()
        return backend.solve(self, **kwargs)

    def __repr__(self) -> str:
        return (
            f"Env({self.num_variables} variables, "
            f"{len(self.hard_constraints)} hard + {len(self.soft_constraints)} soft constraints)"
        )


class Block:
    """A reusable constraint template with named ports.

    ``Block("xor", ["a", "b", "c"], [([..ports..], [..selection..], soft)])``
    describes a sub-structure; :meth:`instantiate` stamps it onto an
    :class:`Env`, mapping port names to environment variables.

    Example
    -------
    >>> xor = Block("xor", ["a", "b", "c"], [(["a", "b", "c"], [0, 2], False)])
    >>> env = Env()
    >>> xor.instantiate(env, {"a": "x", "b": "y", "c": "z"})
    [nck({x, y, z}, {0, 2})]
    """

    def __init__(
        self,
        name: str,
        ports: Sequence[str],
        constraints: Sequence[tuple[Sequence[str], Sequence[int], bool]],
    ) -> None:
        self.name = name
        self.ports = tuple(ports)
        port_set = set(self.ports)
        for coll, _sel, _soft in constraints:
            unknown = set(coll) - port_set
            if unknown:
                raise NckError(f"block {name!r} references unknown ports {sorted(unknown)}")
        self._constraints = [
            (tuple(coll), tuple(sel), bool(soft)) for coll, sel, soft in constraints
        ]

    def instantiate(
        self, env: Env, binding: Mapping[str, Var | str] | None = None
    ) -> list[Constraint]:
        """Stamp this block onto ``env``.

        ``binding`` maps port names to environment variable names (or
        ``Var`` objects); unbound ports get fresh variables.
        """
        binding = dict(binding or {})
        resolved: dict[str, Var] = {}
        for port in self.ports:
            target = binding.get(port)
            if target is None:
                resolved[port] = env.new_var(f"_{self.name}_{port}_")
            elif isinstance(target, Var):
                resolved[port] = env.register_port(target.name)
            else:
                resolved[port] = env.register_port(target)
        added = []
        for coll, sel, soft in self._constraints:
            added.append(env.nck([resolved[p] for p in coll], sel, soft=soft))
        return added

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Block({self.name!r}, ports={list(self.ports)}, constraints={len(self._constraints)})"


# Library of standard blocks used throughout the examples and problems.
XOR_BLOCK = Block("xor", ["a", "b", "c"], [(["a", "b", "c"], [0, 2], False)])
AND_BLOCK = Block(
    "and",
    ["a", "b", "c"],
    # c = a AND b: truth table {000,010,100,111} — TRUE-counts with c doubled
    # distinguish the valid rows. Encoded with c repeated twice: a+b+2c ∈ {0,1,4}.
    [(["a", "b", "c", "c"], [0, 1, 4], False)],
)
OR_BLOCK = Block(
    "or",
    ["a", "b", "c"],
    # c = a OR b: valid rows {000,011,101,111}: a+b+2c ∈ {0, 3, 4}.
    [(["a", "b", "c", "c"], [0, 3, 4], False)],
)
NOT_BLOCK = Block("not", ["a", "b"], [(["a", "b"], [1], False)])
