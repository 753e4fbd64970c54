"""The memoizing request path: canonical fingerprints + LRU tiers.

Two in-memory tiers sit in front of compile and solve:

* the **program cache** maps a *request fingerprint* — a content hash
  of the NchooseK program (constraints in registration order, each as
  its named variables with multiplicities, selection set, and
  hard/soft flag) together with the compile options — to the
  :class:`~repro.compile.program.CompiledProgram` it compiled to.  A
  hit skips the whole compiler pipeline (and, transitively, reuses the
  on-disk ``TemplateStore``/``CertificateStore`` entries the first
  compile warmed);
* the **result cache** maps ``(program.fingerprint, solver
  signature)`` — the compiled QUBO's canonical content hash
  (:func:`repro.qubo.qubo_fingerprint`, surfaced as
  :attr:`CompiledProgram.fingerprint`) plus the solving configuration
  (backends, strategy, timeout, retries, seed) — to the finished
  :class:`~repro.runtime.records.PortfolioResult`.  A hit skips the
  backends entirely and returns the identical solution bytes.

Keying results on the *compiled* fingerprint rather than the request
fingerprint means structurally different requests that compile to the
same QUBO (e.g. re-ordered but symmetric constraints producing an
identical sum) share one result entry, and a corrupted or divergent
compile can never serve another request's answer.

Both tiers are bounded LRU maps, thread-safe, with hit/miss/eviction
counters surfaced through ``service.cache.*`` telemetry and
:meth:`~repro.service.service.SolveService.stats`.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Hashable

from ..store import content_hash

if TYPE_CHECKING:  # pragma: no cover
    from ..core.env import Env

__all__ = ["LRUCache", "request_fingerprint", "solver_signature"]


def request_fingerprint(env: "Env", compile_options: dict | None = None) -> str:
    """Canonical content hash of an NchooseK program + compile options.

    Two environments with the same variables, the same constraints (in
    registration order, compared structurally), and the same compile
    options — regardless of how they were constructed — share a
    fingerprint, and therefore a program-cache entry.  Constraint order
    is deliberately *kept significant*: the compiler's ancilla naming
    follows it, so equal fingerprints guarantee byte-identical compiled
    artifacts, not merely equivalent ones.
    """
    payload = {
        "schema": 1,
        "variables": sorted(v.name for v in env.variables),
        "constraints": [
            {
                "members": [
                    [v.name, m]
                    for v, m in zip(c.collection.unique, c.collection.multiplicities)
                ],
                "selection": list(c.selection.values),
                "soft": c.soft,
            }
            for c in env.constraints
        ],
        "options": _canonical_options(compile_options),
    }
    return content_hash(payload)


def _canonical_options(options: dict | None) -> list:
    """Compile options as a sorted, JSON-stable item list."""
    return sorted((k, _stable_option(v)) for k, v in (options or {}).items())


def _stable_option(value: Any) -> str:
    """A repr of one option value that is provably content-based.

    The default ``object.__repr__`` embeds the instance's memory
    address, which would put a process-local identity into the request
    fingerprint, so two runs of the same request would never share a
    cache entry.  Reject such values loudly instead of silently
    poisoning the cache key.
    """
    if type(value).__repr__ is object.__repr__:
        raise TypeError(
            f"compile option value {value!r} has no content-based repr; "
            "pass a primitive or a type with a stable __repr__"
        )
    return repr(value)


def solver_signature(
    backends: Any,
    strategy: Any,
    timeout: float | None,
    retries: int | None,
    seed: int | None,
) -> str:
    """The solving-configuration half of a result-cache key.

    Backends contribute their resolved *names* (two requests meaning
    "the classical solver" match even if adapter instances differ);
    strategy its name; and the deadline/retry/seed knobs their literal
    values, since any of them can change the returned solution.
    """
    names = [getattr(b, "name", str(b)) for b in backends]
    strat = getattr(strategy, "name", str(strategy))
    return json.dumps(
        [names, strat, timeout, retries, seed], sort_keys=False, separators=(",", ":")
    )


class LRUCache:
    """A bounded, thread-safe least-recently-used map with counters.

    ``maxsize=0`` disables storage entirely (every lookup misses),
    which is how a service configured with a zero cache budget runs
    uncached without a second code path.
    """

    def __init__(self, maxsize: int) -> None:
        """Create the cache bounded to ``maxsize`` entries."""
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        """The cached value (refreshed as most-recent), or ``None``."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry past capacity."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        """Number of live entries."""
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test that does not touch recency or counters."""
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction tallies plus current size."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
