"""Result records and plain-text rendering shared by all experiments.

Every experiment returns a list of records and can render them as the
rows/series the paper's tables and figures report; benches print these so
a reader can compare shapes against the paper directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence


@dataclass(frozen=True)
class QualityTally:
    """Definition 8 outcome counts for one problem configuration."""

    problem: str
    label: str  # instance size descriptor
    logical_variables: int
    physical_qubits: int
    constraints: int
    optimal: int
    suboptimal: int
    incorrect: int

    @property
    def total(self) -> int:
        return self.optimal + self.suboptimal + self.incorrect

    @property
    def pct_optimal(self) -> float:
        return 100.0 * self.optimal / self.total if self.total else 0.0

    @property
    def pct_correct(self) -> float:
        """Optimal + suboptimal (the paper's alternative y-axis)."""
        return (
            100.0 * (self.optimal + self.suboptimal) / self.total if self.total else 0.0
        )


@dataclass(frozen=True)
class CircuitMetrics:
    """One Figure 8/9/10 data point."""

    problem: str
    label: str
    logical_variables: int
    qubits_used: int
    depth: int
    constraints: int
    quality: str  # "optimal" | "suboptimal" | "incorrect"


@dataclass(frozen=True)
class TimingPoint:
    """One Figure 11 observation: a job time at a variable count."""

    problem: str
    num_variables: int
    job_time_s: float


@dataclass(frozen=True)
class ClassicalTimingPoint:
    """One Figure 12 observation: classical solve time at a node count."""

    num_nodes: int
    solve_time_s: float
    cover_size: int


def format_table(rows: Sequence, columns: Sequence[str] | None = None) -> str:
    """Monospace table of dataclass records (or property names)."""
    if not rows:
        return "(no rows)"
    first = rows[0]
    if columns is None:
        columns = [f.name for f in fields(first)]
    header = [c for c in columns]
    body = []
    for r in rows:
        body.append([_fmt(getattr(r, c)) for c in columns])
    widths = [
        max(len(header[i]), *(len(b[i]) for b in body)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for b in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(b, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def utilization_summary(
    circuit_metrics: Sequence, quality_tallies: Sequence,
    circuit_capacity: int = 65, annealer_capacity: int = 5580,
) -> dict:
    """Qubit-utilization ranges (the paper's concluding comparison).

    The paper: problems "scale up to mid to high teens of qubits on the
    IBM device (25–100% of qubit utilization) and into the hundreds of
    qubits on the D-Wave device (4–6% of physical qubit utilization)."
    Computed over the *successful* (non-incorrect) runs of each study.
    """
    circuit_used = [
        m.qubits_used for m in circuit_metrics if m.quality != "incorrect"
    ]
    annealer_used = [
        t.physical_qubits for t in quality_tallies if t.optimal + t.suboptimal > 0
    ]
    def pct_range(values, capacity):
        if not values:
            return (0.0, 0.0)
        return (
            100.0 * min(values) / capacity,
            100.0 * max(values) / capacity,
        )
    return {
        "circuit_max_qubits": max(circuit_used, default=0),
        "circuit_utilization_pct": pct_range(circuit_used, circuit_capacity),
        "annealer_max_qubits": max(annealer_used, default=0),
        "annealer_utilization_pct": pct_range(annealer_used, annealer_capacity),
    }
