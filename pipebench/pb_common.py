"""Shared pieces of the pipeline benchmark: outcomes, quantiles, records.

Every workload returns one :class:`Outcome`.  It counts the operations
the workload attempted, names each one that failed, and carries the
end-to-end and per-layer metrics as ``name -> (value, unit)`` pairs, so
``run.py`` only has to pick one of the two dicts and print it.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field

#: Samples that must lie beyond a reported percentile.  A percentile with
#: fewer samples past it is dominated by one or two calls.
MIN_BEYOND = 10


@dataclass
class Outcome:
    """What one workload run measured and which of its operations failed.

    ``failures`` names every failed operation (``label: reason``); a
    failure counts against ``ok_frac``.  ``wrong`` lists outputs that a
    check found incorrect (a wrong answer, an invalid embedding, a broken
    shape claim); any entry makes the run's ``correct`` false.
    """

    workload: str
    seed: int
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    run_s: float = 0.0
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def fail(self, label: str, reason: str, *, wrong: bool = False) -> None:
        """Record one failed operation; ``wrong`` marks an incorrect output."""
        entry = f"{label}: {reason}"
        self.failures.append(entry)
        if wrong:
            self.wrong.append(entry)

    @property
    def failed(self) -> int:
        """Number of failed operations (each counted once)."""
        return len({f.split(": ", 1)[0] for f in self.failures})

    @property
    def ok_frac(self) -> float:
        """Operations that completed and passed their checks ÷ attempted."""
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def percentile(values, q: float, *, strict: bool = True) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``, linearly interpolated.

    With ``strict`` the call raises unless at least :data:`MIN_BEYOND`
    samples lie beyond the quantile; tiny test configurations pass
    ``strict=False``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    beyond = len(data) * (1.0 - q)
    if strict and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(100 * q)} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(data)} samples"
        )
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    """Median, or 0.0 for no samples (per-layer counters of an idle layer)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor has given other guests so far (all cores).

    A run whose steal grew by a large share of its wall time shared its
    cores with another guest; its timings are not comparable.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment_record(thread_env: dict[str, str]) -> dict:
    """Versions, core count and thread pinning the numbers depend on."""
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "threads": {k: os.environ.get(k) for k in thread_env},
        "executable": os.path.basename(sys.executable),
    }
