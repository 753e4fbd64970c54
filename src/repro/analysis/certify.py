"""Compositional certification of compiled programs.

:func:`certify_program` statically proves the paper's two semantic
claims about a :class:`~repro.compile.program.CompiledProgram` — hard
dominance (Definition 6's scaling inequality ``hard_scale × GAP >
Σ soft contributions``) and soft fidelity (feasible energies equal
``GAP × violated-softs``) — **without enumerating assignments**.

The key structural fact is that the compiler never shares ancillas
between constraints, so the program QUBO minimized over ancillas
decomposes exactly::

    min_y Σ_i f_i(x, y_i)  =  Σ_i min_{y_i} f_i(x, y_i)

Each constraint therefore gets an independent
:class:`ConstraintCertificate` — the min/max of its ancilla-minimized
energy over constraint-satisfying and constraint-violating assignments,
computed from its truth table (≤ 16 unique variables) or, for larger
all-distinct collections, from the permutation-symmetric count table.
Interval arithmetic over those per-constraint bands then yields a sound
program-level proof: every hard-feasible assignment costs at most
``feasible_hi`` and every hard-violating one at least
``infeasible_lo``; dominance is *proved* when the margin between them
exceeds the shared tolerance :data:`~repro.compile.validate.ATOL`.

Because the interval bound only ever proves (it cannot refute), small
programs fall back to the exhaustive verifier
(:func:`~repro.compile.validate.verify_compiled_program`) whenever the
compositional proof is inconclusive — so on every program under the
enumeration cap the certifier's verdict agrees with enumeration by
construction, while beyond the cap the certificates are the only
checker that can run at all.

Certificates are serializable (schema-versioned JSON via
:meth:`ProgramCertificate.to_json`), attached to compiled programs by
the opt-in ``certify`` pipeline pass, cached on disk next to the
template store (:class:`CertificateStore`), and re-checkable offline
with :func:`recheck_certificate`.  Failures surface through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` model as the NCK4xx
code family (catalog in ``docs/analysis.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .. import telemetry
from ..compile.cache import slot_mapping
from ..compile.program import ANCILLA_PREFIX, CompiledProgram
from ..compile.synthesize import GAP, SynthesisResult, _min_over_ancillas
from ..compile.validate import (
    ATOL,
    ProgramValidationError,
    ValidationCapExceeded,
    verify_compiled_program,
)
from ..compile.truthtable import MAX_UNIQUE_VARIABLES
from ..qubo.model import QUBO, qubo_fingerprint
from ..store import JSONStore, content_hash, finite_float
from .diagnostics import Diagnostic, RuleInfo, Severity

if TYPE_CHECKING:  # pragma: no cover
    from ..compile.pipeline import PipelineConfig
    from ..core.env import Env
    from ..core.types import Constraint

__all__ = [
    "CERT_SCHEMA_VERSION",
    "CERTIFY_RULES",
    "CertificateStore",
    "CertificationError",
    "ConstraintCertificate",
    "ProgramCertificate",
    "certificate_diagnostics",
    "certificate_store",
    "certify_program",
    "check_energy",
    "qubo_fingerprint",
    "recheck_certificate",
]

#: Serialization schema version for :class:`ProgramCertificate` JSON.
CERT_SCHEMA_VERSION = 1

#: Truth-table evaluation cap on unique variables + ancillas combined;
#: beyond it the per-constraint profile falls back to the symmetric
#: count table or reports itself inconclusive.
MAX_PROFILE_BITS = 22

#: The NCK4xx rule family emitted by this module (catalog lives in
#: ``docs/analysis.md``; REP302 keeps the two in sync).
CERTIFY_RULES: dict[str, RuleInfo] = {
    r.code: r
    for r in (
        RuleInfo(
            "NCK401",
            "hard dominance not established",
            Severity.ERROR,
            "the proven infeasible floor does not exceed the feasible "
            "ceiling (error when refuted, warning when merely unproved)",
        ),
        RuleInfo(
            "NCK402",
            "soft-fidelity violation",
            Severity.ERROR,
            "a per-constraint energy band contradicts the exact GAP "
            "bookkeeping the program claims",
        ),
        RuleInfo(
            "NCK403",
            "assembled-QUBO mismatch",
            Severity.ERROR,
            "the program QUBO is not the sum of its per-constraint QUBOs",
        ),
        RuleInfo(
            "NCK404",
            "structural violation",
            Severity.ERROR,
            "a per-constraint QUBO references foreign variables or "
            "shares ancillas with another constraint",
        ),
        RuleInfo(
            "NCK405",
            "inconclusive certificate",
            Severity.WARNING,
            "a constraint's energy band could not be bounded "
            "(too large and not permutation-symmetric)",
        ),
    )
}


class CertificationError(ProgramValidationError):
    """Certification found a semantic violation in a compiled program.

    Subclasses :class:`~repro.compile.validate.ProgramValidationError`
    so pipeline callers that already guard exhaustive validation catch
    certification failures identically.
    """


@dataclass(frozen=True)
class ConstraintCertificate:
    """Energy bands of one constraint's compiled (scaled) QUBO.

    All energies are of the *ancilla-minimized* per-constraint QUBO
    exactly as it appears in ``CompiledProgram.constraint_qubos`` —
    i.e. hard constraints are certified post-scaling.  ``valid_*``
    bounds range over constraint-satisfying assignments, ``invalid_*``
    over violating ones; either side is ``None`` when empty (a
    tautology has no invalid rows, a dropped soft no valid ones).

    ``method`` records how the band was computed: ``"truth-table"``,
    ``"symmetric"`` (count-table over an all-distinct collection),
    ``"dropped"`` (unsatisfiable soft, compiled away), or
    ``"inconclusive"`` (no sound evaluation path — see ``problems``).
    """

    index: int
    soft: bool
    scale: float
    method: str
    valid_min: Optional[float]
    valid_max: Optional[float]
    invalid_min: Optional[float]
    invalid_max: Optional[float]
    ancillas: tuple[str, ...] = ()
    cache_key: Optional[str] = None
    cached: bool = False
    problems: tuple[str, ...] = ()

    @property
    def conclusive(self) -> bool:
        """Whether the energy bands are trustworthy."""
        return self.method != "inconclusive" and not self.problems

    @property
    def overall_min(self) -> float:
        """Lower bound of this constraint's contribution anywhere."""
        candidates = [b for b in (self.valid_min, self.invalid_min) if b is not None]
        return min(candidates) if candidates else 0.0

    @property
    def overall_max(self) -> float:
        """Upper bound of this constraint's contribution anywhere."""
        candidates = [b for b in (self.valid_max, self.invalid_max) if b is not None]
        return max(candidates) if candidates else 0.0

    def to_dict(self) -> dict:
        """JSON-ready mapping (schema: :data:`CERT_SCHEMA_VERSION`)."""
        return {
            "index": self.index,
            "soft": self.soft,
            "scale": self.scale,
            "method": self.method,
            "valid_min": self.valid_min,
            "valid_max": self.valid_max,
            "invalid_min": self.invalid_min,
            "invalid_max": self.invalid_max,
            "ancillas": list(self.ancillas),
            "cache_key": self.cache_key,
            "cached": self.cached,
            "problems": list(self.problems),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConstraintCertificate":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            soft=bool(data["soft"]),
            scale=float(data["scale"]),
            method=str(data["method"]),
            valid_min=_opt_float(data["valid_min"]),
            valid_max=_opt_float(data["valid_max"]),
            invalid_min=_opt_float(data["invalid_min"]),
            invalid_max=_opt_float(data["invalid_max"]),
            ancillas=tuple(data.get("ancillas", ())),
            cache_key=data.get("cache_key"),
            cached=bool(data.get("cached", False)),
            problems=tuple(data.get("problems", ())),
        )


@dataclass(frozen=True)
class ProgramCertificate:
    """The program-level certificate combining per-constraint bands.

    ``feasible_lo``/``feasible_hi`` bound the ancilla-minimized program
    energy over hard-feasible assignments, ``infeasible_lo`` bounds it
    from below over hard-violating ones (``None`` when not computable;
    irrelevant when ``dominance`` is ``"vacuous"``).  ``dominance`` is
    one of ``"proved"``, ``"vacuous"``, ``"unproved"``,
    ``"enumerated-pass"``, ``"enumerated-fail"``;  ``soft_fidelity`` is
    ``"exact"``, ``"bounded"``, ``"violated"``, or ``"inconclusive"``;
    ``verdict`` is the headline ``"pass"`` / ``"fail"`` /
    ``"inconclusive"``.  ``fallback`` records whether exhaustive
    enumeration was consulted (``"enumeration"``) and
    ``fallback_error`` its failure message, if any.
    """

    schema: int
    gap: float
    atol: float
    hard_scale: float
    soft_penalties_exact: bool
    num_variables: int
    num_ancillas: int
    qubo_sha256: str
    constraints: tuple[ConstraintCertificate, ...]
    feasible_lo: Optional[float]
    feasible_hi: Optional[float]
    infeasible_lo: Optional[float]
    sum_deviation: float
    dominance: str
    soft_fidelity: str
    verdict: str
    fallback: Optional[str] = None
    fallback_error: Optional[str] = None
    problems: tuple[str, ...] = ()

    @property
    def margin(self) -> Optional[float]:
        """Proven dominance margin ``infeasible_lo − feasible_hi``."""
        if self.infeasible_lo is None or self.feasible_hi is None:
            return None
        return self.infeasible_lo - self.feasible_hi

    def to_dict(self) -> dict:
        """JSON-ready mapping (schema: :data:`CERT_SCHEMA_VERSION`)."""
        return {
            "schema": self.schema,
            "gap": self.gap,
            "atol": self.atol,
            "hard_scale": self.hard_scale,
            "soft_penalties_exact": self.soft_penalties_exact,
            "num_variables": self.num_variables,
            "num_ancillas": self.num_ancillas,
            "qubo_sha256": self.qubo_sha256,
            "constraints": [c.to_dict() for c in self.constraints],
            "feasible_lo": self.feasible_lo,
            "feasible_hi": self.feasible_hi,
            "infeasible_lo": self.infeasible_lo,
            "margin": self.margin,
            "sum_deviation": self.sum_deviation,
            "dominance": self.dominance,
            "soft_fidelity": self.soft_fidelity,
            "verdict": self.verdict,
            "fallback": self.fallback,
            "fallback_error": self.fallback_error,
            "problems": list(self.problems),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramCertificate":
        """Inverse of :meth:`to_dict` (rejects unknown schemas)."""
        schema = int(data["schema"])
        if schema != CERT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported certificate schema {schema} "
                f"(this build reads {CERT_SCHEMA_VERSION})"
            )
        return cls(
            schema=schema,
            gap=float(data["gap"]),
            atol=float(data["atol"]),
            hard_scale=float(data["hard_scale"]),
            soft_penalties_exact=bool(data["soft_penalties_exact"]),
            num_variables=int(data["num_variables"]),
            num_ancillas=int(data["num_ancillas"]),
            qubo_sha256=str(data["qubo_sha256"]),
            constraints=tuple(
                ConstraintCertificate.from_dict(c) for c in data["constraints"]
            ),
            feasible_lo=_opt_float(data["feasible_lo"]),
            feasible_hi=_opt_float(data["feasible_hi"]),
            infeasible_lo=_opt_float(data["infeasible_lo"]),
            sum_deviation=float(data["sum_deviation"]),
            dominance=str(data["dominance"]),
            soft_fidelity=str(data["soft_fidelity"]),
            verdict=str(data["verdict"]),
            fallback=data.get("fallback"),
            fallback_error=data.get("fallback_error"),
            problems=tuple(data.get("problems", ())),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a stable JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProgramCertificate":
        """Deserialize a :meth:`to_json` document."""
        return cls.from_dict(json.loads(text))


def _opt_float(value) -> Optional[float]:
    """``None``-preserving float coercion for deserialization."""
    return None if value is None else float(value)


def _ancilla_sort_key(name: str) -> tuple:
    """Sort ancilla names numerically (``_qanc9`` before ``_qanc10``)."""
    suffix = name[len(ANCILLA_PREFIX):] if name.startswith(ANCILLA_PREFIX) else ""
    return (0, int(suffix), name) if suffix.isdigit() else (1, 0, name)


def _profile_cache_key(
    constraint: "Constraint", qubo: QUBO, ancillas: tuple[str, ...], scale: float
) -> str:
    """Instance-independent content key for a constraint's energy profile.

    The concrete variable names are relabeled onto canonical slot names
    (the same ``_slot{i}`` order the template cache uses) and the
    instance ancillas onto ``_anc{i}``, so every instantiation of the
    same template — at the same scale and with the same coefficients —
    shares one cache entry, while any coefficient corruption changes
    the key and forces recomputation.
    """
    mapping = {name: slot for slot, name in slot_mapping(constraint).items()}
    mapping.update({a: f"_anc{i}" for i, a in enumerate(ancillas)})
    payload = {
        "schema": CERT_SCHEMA_VERSION,
        "gap": GAP,
        "multiplicities": sorted(constraint.collection.multiplicities),
        "selection": sorted(constraint.selection.values),
        "soft": constraint.soft,
        "scale": round(scale, 9),
        "qubo": qubo_fingerprint(qubo.relabeled(mapping)),
    }
    return content_hash(payload)


#: The energy bands a cached profile carries besides its ``method``.
_BANDS = ("valid_min", "valid_max", "invalid_min", "invalid_max")


class CertificateStore(JSONStore):
    """On-disk cache of per-constraint energy profiles.

    One ``<key>.cert.json`` entry per profile key, in the ``certs/``
    directory that :func:`certificate_store` places beside the
    compiler's template store.  An entry decodes only with a
    ``truth-table`` or ``symmetric`` method and bands that are ``None``
    or finite floats; anything else is discarded and recomputed.
    """

    schema = CERT_SCHEMA_VERSION
    pattern = "*.cert.json"

    def entry_name(self, key: str) -> str:
        """``<key>.cert.json``."""
        return f"{key}.cert.json"

    def encode(self, profile: dict) -> dict:
        """The entry fields for one energy profile."""
        return {f: profile[f] for f in ("method", *_BANDS)}

    def decode(self, entry: dict, key: str) -> dict:
        """The validated profile; raises on an unknown method or a bad band."""
        if entry["method"] not in ("truth-table", "symmetric"):
            raise ValueError(f"bad profile method: {entry['method']!r}")
        profile = {"method": entry["method"]}
        for band in _BANDS:
            profile[band] = None if entry[band] is None else finite_float(entry[band])
        return profile


def certificate_store(config: "PipelineConfig") -> Optional[CertificateStore]:
    """The certificate store beside ``config``'s template store.

    ``None`` when ``config`` leaves the compiler's disk tier off.
    """
    if not config.disk_enabled:
        return None
    return CertificateStore(config.resolved_cache_dir() / "certs")


def _certify_constraint(
    index: int,
    constraint: "Constraint",
    qubo: QUBO,
    scale: float,
    env_names: frozenset[str],
    anc_owner: dict[str, int],
    program_ancillas: frozenset[str],
    store: Optional[CertificateStore],
) -> ConstraintCertificate:
    """Build one constraint's certificate from its compiled QUBO."""
    member_names = {v.name for v in constraint.collection.unique}
    problems: list[str] = []

    extras = [v for v in qubo.variables if v not in member_names]
    ancillas: list[str] = []
    for name in extras:
        if name in env_names:
            problems.append(f"couples foreign program variable {name!r}")
        elif name not in program_ancillas:
            problems.append(f"references unknown variable {name!r}")
        elif name in anc_owner:
            problems.append(
                f"shares ancilla {name!r} with constraint[{anc_owner[name]}]"
            )
        else:
            anc_owner[name] = index
            ancillas.append(name)
    ancillas.sort(key=_ancilla_sort_key)

    if constraint.soft and constraint.is_unsatisfiable():
        # Canonicalization drops the constraint; its QUBO slot is empty.
        if qubo.pruned().variables or abs(qubo.offset) > ATOL:
            problems.append("dropped soft constraint has a non-empty QUBO")
        return ConstraintCertificate(
            index=index,
            soft=True,
            scale=scale,
            method="dropped" if not problems else "inconclusive",
            valid_min=None,
            valid_max=None,
            invalid_min=0.0,
            invalid_max=0.0,
            problems=tuple(problems),
        )

    if problems:
        return ConstraintCertificate(
            index=index,
            soft=constraint.soft,
            scale=scale,
            method="inconclusive",
            valid_min=None,
            valid_max=None,
            invalid_min=None,
            invalid_max=None,
            ancillas=tuple(ancillas),
            problems=tuple(problems),
        )

    key = _profile_cache_key(constraint, qubo, tuple(ancillas), scale)
    profile = store.load(key) if store is not None else None
    cached = profile is not None
    if not cached:
        profile = _energy_profile(constraint, qubo, tuple(ancillas))
        if store is not None and profile["method"] != "inconclusive":
            store.store(key, profile)
    return ConstraintCertificate(
        index=index,
        soft=constraint.soft,
        scale=scale,
        method=profile["method"],
        valid_min=profile["valid_min"],
        valid_max=profile["valid_max"],
        invalid_min=profile["invalid_min"],
        invalid_max=profile["invalid_max"],
        ancillas=tuple(ancillas),
        cache_key=key,
        cached=cached,
        problems=tuple(profile.get("problems", ())),
    )


def _energy_profile(
    constraint: "Constraint", qubo: QUBO, ancillas: tuple[str, ...]
) -> dict:
    """Min/max ancilla-minimized energy over valid/invalid assignments."""
    n_unique = len(constraint.collection.unique)
    if n_unique <= MAX_UNIQUE_VARIABLES and n_unique + len(ancillas) > MAX_PROFILE_BITS:
        return {
            "method": "inconclusive",
            "valid_min": None,
            "valid_max": None,
            "invalid_min": None,
            "invalid_max": None,
            "problems": (
                f"{n_unique} variables + {len(ancillas)} ancillas exceed the "
                f"{MAX_PROFILE_BITS}-bit profile cap",
            ),
        }
    shim = SynthesisResult(
        qubo=qubo, ancillas=ancillas, used_closed_form=False
    )
    try:
        valid, mins = _min_over_ancillas(constraint, shim)
    except ValueError as exc:
        return {
            "method": "inconclusive",
            "valid_min": None,
            "valid_max": None,
            "invalid_min": None,
            "invalid_max": None,
            "problems": (str(exc),),
        }
    method = "truth-table" if n_unique <= MAX_UNIQUE_VARIABLES else "symmetric"
    invalid = ~valid
    return {
        "method": method,
        "valid_min": float(mins[valid].min()) if valid.any() else None,
        "valid_max": float(mins[valid].max()) if valid.any() else None,
        "invalid_min": float(mins[invalid].min()) if invalid.any() else None,
        "invalid_max": float(mins[invalid].max()) if invalid.any() else None,
    }


def _sum_deviation(program: CompiledProgram) -> float:
    """Max coefficient deviation of Σ constraint QUBOs vs the program QUBO."""
    total = QUBO()
    for q in program.constraint_qubos:
        total += q
    total = total.pruned()
    target = program.qubo.pruned()
    deviation = abs(total.offset - target.offset)
    for name in set(total.linear) | set(target.linear):
        deviation = max(
            deviation, abs(total.linear.get(name, 0.0) - target.linear.get(name, 0.0))
        )
    keys = {tuple(sorted(k)) for k in total.quadratic} | {
        tuple(sorted(k)) for k in target.quadratic
    }
    for u, v in keys:
        a = total.quadratic.get((u, v), total.quadratic.get((v, u), 0.0))
        b = target.quadratic.get((u, v), target.quadratic.get((v, u), 0.0))
        deviation = max(deviation, abs(a - b))
    return deviation


def certify_program(
    env: "Env",
    program: CompiledProgram,
    *,
    atol: float = ATOL,
    fallback: bool = True,
    store: Optional[CertificateStore] = None,
) -> ProgramCertificate:
    """Certify ``program`` against ``env`` and return the certificate.

    ``atol`` is the comparison tolerance (default: the
    :data:`~repro.compile.validate.ATOL` shared with the exhaustive
    verifier); ``fallback`` permits consulting
    :func:`~repro.compile.validate.verify_compiled_program` when the
    compositional proof is inconclusive and the program fits under the
    enumeration cap; ``store`` is an optional :class:`CertificateStore`
    caching per-constraint energy profiles across runs.

    Never raises on a bad program — the outcome (including
    ``verdict="fail"``) is encoded in the returned certificate; use
    :func:`certificate_diagnostics` to render it as diagnostics.
    """
    with telemetry.span(
        "analysis.certify",
        constraints=len(env.constraints),
        variables=len(program.variables),
    ) as sp:
        hits0 = store.hits if store is not None else 0
        misses0 = store.misses if store is not None else 0
        cert = _certify_program(env, program, atol, fallback, store)
        telemetry.count("analysis.certify.constraints", len(cert.constraints))
        telemetry.count(
            "analysis.certify.inconclusive",
            sum(1 for c in cert.constraints if c.method == "inconclusive"),
        )
        if store is not None:
            telemetry.count("analysis.certify.store_hits", store.hits - hits0)
            telemetry.count("analysis.certify.store_misses", store.misses - misses0)
        sp.set(verdict=cert.verdict, dominance=cert.dominance)
        return cert


def _certify_program(
    env: "Env",
    program: CompiledProgram,
    atol: float,
    fallback: bool,
    store: Optional[CertificateStore],
) -> ProgramCertificate:
    """The engine behind :func:`certify_program`."""
    env_names = frozenset(program.variables)
    program_ancillas = frozenset(program.ancillas)
    anc_owner: dict[str, int] = {}
    problems: list[str] = []

    if len(program.constraint_qubos) != len(env.constraints):
        problems.append(
            f"{len(program.constraint_qubos)} per-constraint QUBOs for "
            f"{len(env.constraints)} constraints"
        )

    certs: list[ConstraintCertificate] = []
    for index, constraint in enumerate(env.constraints):
        if index >= len(program.constraint_qubos):
            break
        scale = 1.0 if constraint.soft else program.hard_scale
        certs.append(
            _certify_constraint(
                index,
                constraint,
                program.constraint_qubos[index],
                scale,
                env_names,
                anc_owner,
                program_ancillas,
                store,
            )
        )

    sum_deviation = _sum_deviation(program)

    # Interval combination. Feasible assignments satisfy every hard
    # constraint, so each hard certificate contributes its valid band;
    # soft constraints contribute their overall band either way. An
    # infeasible assignment violates at least one hard constraint — the
    # bound minimizes over which, holding every other constraint at its
    # overall minimum.
    hard = [c for c in certs if not c.soft]
    soft = [c for c in certs if c.soft]
    all_conclusive = all(c.conclusive for c in certs) and not problems

    feasible_lo = feasible_hi = infeasible_lo = None
    dominance = "unproved"
    if all_conclusive and sum_deviation <= atol:
        feasible_lo = sum(c.valid_min or 0.0 for c in hard) + sum(
            c.overall_min for c in soft
        )
        feasible_hi = sum(c.valid_max or 0.0 for c in hard) + sum(
            c.overall_max for c in soft
        )
        violatable = [c for c in hard if c.invalid_min is not None]
        if not violatable:
            dominance = "vacuous"
        else:
            base = sum(c.overall_min for c in certs)
            infeasible_lo = min(
                base - c.overall_min + c.invalid_min for c in violatable
            )
            if infeasible_lo > feasible_hi + atol:
                dominance = "proved"

    soft_fidelity = _soft_fidelity(program, hard, soft, atol)

    # Fallback: the interval proof can only ever *prove*; when it comes
    # back short on a program small enough to enumerate, the exhaustive
    # verifier's verdict is ground truth (in both directions).
    fallback_kind = fallback_error = None
    fully_proved = (
        dominance in ("proved", "vacuous")
        and soft_fidelity in ("exact", "bounded")
        and sum_deviation <= atol
        and all_conclusive
    )
    if fallback and not fully_proved:
        try:
            verify_compiled_program(env, program)
        except ValidationCapExceeded:
            pass
        except ProgramValidationError as exc:
            fallback_kind, fallback_error = "enumeration", str(exc)
        else:
            fallback_kind = "enumeration"
        if fallback_kind is not None:
            dominance = (
                "enumerated-fail"
                if fallback_error and "hard-violating" in fallback_error
                else "enumerated-pass"
                if fallback_error is None
                else dominance
            )

    draft = ProgramCertificate(
        schema=CERT_SCHEMA_VERSION,
        gap=GAP,
        atol=atol,
        hard_scale=program.hard_scale,
        soft_penalties_exact=program.soft_penalties_exact,
        num_variables=len(program.variables),
        num_ancillas=len(program.ancillas),
        qubo_sha256=program.fingerprint,
        constraints=tuple(certs),
        feasible_lo=feasible_lo,
        feasible_hi=feasible_hi,
        infeasible_lo=infeasible_lo,
        sum_deviation=sum_deviation,
        dominance=dominance,
        soft_fidelity=soft_fidelity,
        verdict="inconclusive",
        fallback=fallback_kind,
        fallback_error=fallback_error,
        problems=tuple(problems),
    )
    return replace(draft, verdict=_verdict(draft))


def _soft_fidelity(
    program: CompiledProgram,
    hard: list[ConstraintCertificate],
    soft: list[ConstraintCertificate],
    atol: float,
) -> str:
    """Classify the program's soft-penalty bookkeeping from the bands.

    ``"exact"``: every hard constraint sits at 0 on its valid rows and
    every live soft constraint is a 0-or-GAP indicator, so feasible
    energies equal ``GAP × violated-softs`` exactly — required when the
    program claims ``soft_penalties_exact``.  ``"bounded"``: the weaker
    guarantee that each violated soft costs at least GAP.
    """
    live_soft = [c for c in soft if c.method != "dropped"]
    if any(not c.conclusive for c in hard + live_soft):
        return "inconclusive"

    def at(value: Optional[float], target: float) -> bool:
        return value is None or abs(value - target) <= atol

    hard_zeroed = all(at(c.valid_min, 0.0) and at(c.valid_max, 0.0) for c in hard)
    soft_zeroed = all(
        at(c.valid_min, 0.0) and at(c.valid_max, 0.0) for c in live_soft
    )
    soft_indicator = all(
        at(c.invalid_min, GAP) and at(c.invalid_max, GAP) for c in live_soft
    )
    soft_floored = all(
        c.invalid_min is None or c.invalid_min >= GAP - atol for c in live_soft
    )
    if hard_zeroed and soft_zeroed and soft_indicator:
        return "exact"
    if program.soft_penalties_exact:
        return "violated"
    if soft_floored and all(c.valid_min is None or c.valid_min >= -atol
                            for c in live_soft):
        return "bounded"
    return "violated"


def _verdict(cert: ProgramCertificate) -> str:
    """Headline verdict from a fully-populated certificate draft."""
    diagnostics = certificate_diagnostics(cert)
    if any(d.severity >= Severity.ERROR for d in diagnostics):
        return "fail"
    if cert.fallback is not None and cert.fallback_error is None:
        return "pass"
    proved = (
        cert.dominance in ("proved", "vacuous")
        and cert.soft_fidelity in ("exact", "bounded")
        and cert.sum_deviation <= cert.atol
        and all(c.conclusive for c in cert.constraints)
        and not cert.problems
    )
    return "pass" if proved else "inconclusive"


def certificate_diagnostics(cert: ProgramCertificate) -> list[Diagnostic]:
    """Derive NCK4xx diagnostics from a certificate — offline-safe.

    A pure function of the certificate's stored numbers, so re-checking
    a deserialized certificate reproduces the findings of the original
    run without the program in hand.
    """
    enumeration_passed = cert.fallback is not None and cert.fallback_error is None

    def diag(code: str, severity: Severity, message: str, obj: str, hint=None):
        if severity >= Severity.ERROR and enumeration_passed:
            # Exhaustive enumeration is ground truth on small programs:
            # the band anomaly is real but semantically harmless.
            severity = Severity.WARNING
            message += " (exhaustive enumeration nevertheless verifies the program)"
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            source="certify",
            obj=obj,
            hint=hint,
        )

    out: list[Diagnostic] = []

    for text in cert.problems:
        out.append(diag("NCK404", Severity.ERROR, text, "<program>"))

    for c in cert.constraints:
        label = f"constraint[{c.index}]"
        for text in c.problems:
            out.append(diag("NCK404", Severity.ERROR, text, label))
        if c.method == "inconclusive" and not c.problems:
            out.append(
                Diagnostic(
                    code="NCK405",
                    severity=Severity.WARNING,
                    message="energy band could not be bounded",
                    source="certify",
                    obj=label,
                    hint="shrink the collection or keep multiplicities at 1",
                )
            )

    if cert.sum_deviation > cert.atol:
        out.append(
            diag(
                "NCK403",
                Severity.ERROR,
                f"program QUBO deviates from the sum of its per-constraint "
                f"QUBOs by {cert.sum_deviation:g}",
                "<program>",
                "the compiled artifact was modified after assembly",
            )
        )

    if cert.soft_fidelity == "violated":
        for c in cert.constraints:
            if not c.conclusive or c.method == "dropped":
                continue
            bands = _fidelity_violation(c, cert)
            if bands:
                out.append(diag("NCK402", Severity.ERROR, bands, f"constraint[{c.index}]"))

    if cert.dominance == "enumerated-fail":
        out.append(
            diag(
                "NCK401",
                Severity.ERROR,
                f"exhaustive enumeration refutes hard dominance: "
                f"{cert.fallback_error}",
                "<program>",
            )
        )
    elif (
        cert.fallback_error is not None
        and cert.dominance != "enumerated-fail"
    ):
        out.append(
            diag(
                "NCK402",
                Severity.ERROR,
                f"exhaustive enumeration refutes soft fidelity: "
                f"{cert.fallback_error}",
                "<program>",
            )
        )
    elif cert.dominance == "unproved" and cert.fallback is None:
        margin = cert.margin
        detail = (
            f"proven margin {margin:g} ≤ tolerance"
            if margin is not None
            else "bounds unavailable"
        )
        locally_broken = [
            c
            for c in cert.constraints
            if not c.soft
            and c.conclusive
            and c.invalid_min is not None
            and c.invalid_min < c.scale * cert.gap - cert.atol
        ]
        if locally_broken:
            worst = min(locally_broken, key=lambda c: c.invalid_min)
            out.append(
                diag(
                    "NCK401",
                    Severity.ERROR,
                    f"hard constraint[{worst.index}] admits a violating "
                    f"assignment at energy {worst.invalid_min:g} < "
                    f"hard_scale × GAP = {worst.scale * cert.gap:g}",
                    f"constraint[{worst.index}]",
                    "the compiled artifact no longer matches its synthesis spec",
                )
            )
        else:
            out.append(
                Diagnostic(
                    code="NCK401",
                    severity=Severity.WARNING,
                    message=f"hard dominance not established ({detail}) and the "
                    f"program exceeds the enumeration cap",
                    source="certify",
                    obj="<program>",
                    hint="raise hard_scale to widen the interval margin",
                )
            )

    return sorted(out, key=Diagnostic.sort_key)


def _fidelity_violation(
    c: ConstraintCertificate, cert: ProgramCertificate
) -> Optional[str]:
    """Describe how one band breaks the fidelity contract, if it does."""
    atol, gap = cert.atol, cert.gap

    def off(value: Optional[float], target: float) -> bool:
        return value is not None and abs(value - target) > atol

    if off(c.valid_min, 0.0) or off(c.valid_max, 0.0):
        return (
            f"satisfying assignments span [{c.valid_min:g}, {c.valid_max:g}] "
            f"instead of sitting at 0"
        )
    if c.soft and cert.soft_penalties_exact and (
        off(c.invalid_min, gap) or off(c.invalid_max, gap)
    ):
        return (
            f"violating assignments span [{c.invalid_min:g}, {c.invalid_max:g}] "
            f"instead of sitting at GAP = {gap:g}"
        )
    if c.soft and c.invalid_min is not None and c.invalid_min < gap - atol:
        return (
            f"a violating assignment costs {c.invalid_min:g} < GAP = {gap:g}"
        )
    return None


def recheck_certificate(
    program: CompiledProgram, cert: ProgramCertificate
) -> list[Diagnostic]:
    """Offline re-check of a (possibly deserialized) certificate.

    Confirms the certificate still describes ``program`` — the QUBO
    fingerprint, variable counts, and claimed hard scale must match —
    then re-derives the NCK4xx findings from the stored bands.  Returns
    the diagnostics; a stale or mismatched certificate yields an
    NCK404 error rather than an exception.
    """
    out: list[Diagnostic] = []
    # Deliberately re-hash from the QUBO's content: tamper detection
    # must not trust the fingerprint memo on the (possibly mutated-in-
    # place) program artifact.
    fingerprint = qubo_fingerprint(program.qubo)
    checks = (
        (cert.qubo_sha256 == fingerprint, "QUBO fingerprint"),
        (cert.num_variables == len(program.variables), "variable count"),
        (cert.num_ancillas == len(program.ancillas), "ancilla count"),
        (abs(cert.hard_scale - program.hard_scale) <= cert.atol, "hard scale"),
    )
    for ok, what in checks:
        if not ok:
            out.append(
                Diagnostic(
                    code="NCK404",
                    severity=Severity.ERROR,
                    message=f"certificate does not match this program: {what} differs",
                    source="certify",
                    obj="<certificate>",
                    hint="re-run certification against the current artifact",
                )
            )
    out.extend(certificate_diagnostics(cert))
    return sorted(out, key=Diagnostic.sort_key)


def check_energy(
    cert: ProgramCertificate, energy: float, *, atol: float | None = None
) -> str:
    """Classify a claimed hard-feasible solution energy against the bounds.

    Returns ``"consistent"`` when the reported ``energy`` sits inside
    the feasible band certified by ``cert``,
    ``"in-proven-infeasible-band"`` when it reaches the proven
    infeasible floor (a backend labeled an answer feasible at an energy
    the certificate proves only infeasible assignments can have — or
    reported an energy at unminimized ancillas),
    ``"below-certified-floor"`` when it undercuts the proven feasible
    minimum, and ``"uncertified"`` when the certificate's verdict is not
    a bound-carrying ``"pass"``.  Comparisons use ``atol`` (default: the
    certificate's own tolerance).
    """
    tol = cert.atol if atol is None else atol
    if cert.verdict != "pass":
        return "uncertified"
    if cert.infeasible_lo is not None and energy >= cert.infeasible_lo - tol:
        return "in-proven-infeasible-band"
    if cert.feasible_lo is not None and energy < cert.feasible_lo - tol:
        return "below-certified-floor"
    return "consistent"
