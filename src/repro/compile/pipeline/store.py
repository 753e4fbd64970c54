"""Persistent on-disk template store (the compiler's second cache tier).

Templates — slot-named QUBOs synthesized once per
:func:`~repro.compile.cache.template_key` class — survive the process in
a directory of JSON files, one per template, addressed by a content hash
of the key.  A second compilation of any problem sharing constraint
classes with an earlier one (the common case: one-hot rows, vertex-cover
edges, 3-SAT clauses) then skips LP/MILP synthesis entirely.

:class:`TemplateStore` is a codec over :class:`repro.store.JSONStore`,
which owns the files: atomic writes, schema and key-echo checks, and
deleting whatever it cannot read.  The codec adds the template's own
checks — slot/ancilla name shapes, float finiteness, flag types and
the strategy echo — so a bad entry is resynthesized and can never crash a
compilation or change its output.
"""

from __future__ import annotations

import re

from ...qubo.model import QUBO
from ...store import JSONStore, content_hash, finite_float
from ..cache import Template

#: Bump whenever the on-disk payload layout or the synthesized-template
#: semantics change; mismatched entries are discarded and resynthesized.
#: Version 2 added an encoding-strategy name to both the key payload and
#: the template fields, for a compiler that chose between several
#: encodings.  It now has one, so the name is always ``"penalty"``; it
#: stays in both places because dropping it would rename every entry and
#: change its bytes, turning each existing store into all misses.
SCHEMA_VERSION = 2

_SLOT_OR_ANC = re.compile(r"_slot\d+$|_tanc\d+$")


def _key_payload(key: tuple) -> dict:
    """JSON-friendly form of a template key, echoed into each entry."""
    (multiplicities, selection), exact_penalty, strategy = key
    return {
        "multiplicities": list(multiplicities),
        "selection": list(selection),
        "exact_penalty": bool(exact_penalty),
        "strategy": str(strategy),
    }


def _checked_name(name: object) -> str:
    """Validate a stored variable name (slot or template ancilla)."""
    if not isinstance(name, str) or not _SLOT_OR_ANC.match(name):
        raise ValueError(f"bad template variable name: {name!r}")
    return name


class TemplateStore(JSONStore):
    """Schema-versioned directory of synthesized QUBO templates.

    One ``<32 hex>.json`` entry per template key.  ``hits`` / ``misses``
    feed ``compile.disk_cache.*`` and the compiled program's
    ``cache_stats``; ``errors`` counts discarded entries and failed
    writes.
    """

    schema = SCHEMA_VERSION
    pattern = "*.json"

    def entry_name(self, key: tuple) -> str:
        """Content-addressed filename for ``key`` (stable across processes)."""
        canon = {"schema": SCHEMA_VERSION, **_key_payload(key)}
        return content_hash(canon, compact=True)[:32] + ".json"

    def key_echo(self, key: tuple) -> dict:
        """The key's JSON form, echoed into each entry."""
        return _key_payload(key)

    def encode(self, template: Template) -> dict:
        """The entry fields for one template (deterministic ordering)."""
        qubo = template.qubo
        return {
            "offset": qubo.offset,
            "linear": sorted(qubo.linear.items()),
            "quadratic": sorted(
                (a, b, coeff) for (a, b), coeff in qubo.quadratic.items()
            ),
            "num_ancillas": template.num_ancillas,
            "used_closed_form": template.used_closed_form,
            "exact_penalty": template.exact_penalty,
            "strategy": template.strategy,
        }

    def decode(self, entry: dict, key: tuple) -> Template:
        """Rebuild a Template, validating everything; raises on any doubt."""
        qubo = QUBO(offset=finite_float(entry["offset"]))
        for name, coeff in entry["linear"]:
            qubo.add_linear(_checked_name(name), finite_float(coeff))
        for a, b, coeff in entry["quadratic"]:
            qubo.add_quadratic(_checked_name(a), _checked_name(b), finite_float(coeff))

        num_ancillas = entry["num_ancillas"]
        if type(num_ancillas) is not int or num_ancillas < 0:
            raise ValueError(f"bad num_ancillas: {num_ancillas!r}")
        used_closed_form = entry["used_closed_form"]
        exact_penalty = entry["exact_penalty"]
        if not isinstance(used_closed_form, bool) or not isinstance(
            exact_penalty, bool
        ):
            raise ValueError("bad template flags")
        strategy = entry["strategy"]
        if strategy != key[2]:
            raise ValueError(
                f"template strategy {strategy!r} does not match key {key[2]!r}"
            )
        return Template(
            qubo=qubo,
            num_ancillas=num_ancillas,
            used_closed_form=used_closed_form,
            exact_penalty=exact_penalty,
            strategy=strategy,
        )
