"""The declared span/metric name registry.

Every telemetry name in the codebase follows the
``<subsystem>.<event>`` convention documented in
``docs/observability.md``: dotted lowercase, with the leading segment
naming the emitting subsystem.  This module is the single place those
subsystems are declared; the ``telemetry_names`` check in
``tests/test_codebase.py`` enforces the registry statically, so a
typo'd or undeclared prefix fails the test suite instead of silently
fragmenting dashboards.

Adding a new instrumented subsystem is a two-step change: add its
prefix here, and document its canonical names in
``docs/observability.md``.
"""

from __future__ import annotations

import re

#: The declared top-level subsystems allowed as span/metric prefixes.
KNOWN_SPAN_PREFIXES: frozenset[str] = frozenset(
    {
        "compile",
        "anneal",
        "circuit",
        "classical",
        "runtime",
        "experiments",
        "analysis",
        "service",
    }
)

#: Declared two-level families under existing prefixes: the sparse
#: numeric core's kernel-path counters (``anneal.sparse.*`` — see
#: ``docs/numerics.md``), the solve-service request path
#: (``service.admission.*`` decision counters, ``service.cache.*``
#: memoization outcomes, ``service.tenant.*`` per-tenant latency
#: histograms — see ``docs/service.md``).  The static check validates
#: prefixes; this registry is the documented home for the families so
#: dashboards and ``docs/observability.md`` stay in sync.
KNOWN_NAME_FAMILIES: frozenset[str] = frozenset(
    {
        "anneal.sparse",
        "service.admission",
        "service.cache",
        "service.tenant",
    }
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def is_canonical_name(name: str) -> bool:
    """Whether ``name`` is dotted lowercase under a declared prefix.

    A canonical name has at least two dot-separated lowercase segments
    (``compile.program``, ``anneal.job.reads``) and its first segment is
    a member of :data:`KNOWN_SPAN_PREFIXES`.
    """
    if not _NAME_RE.match(name):
        return False
    return name.split(".", 1)[0] in KNOWN_SPAN_PREFIXES
