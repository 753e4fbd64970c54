"""Shared value types of the staged compiler: configuration + provenance.

The pipeline (see :mod:`repro.compile.pipeline`) is driven by one
immutable :class:`PipelineConfig` validated up front — bad option
combinations fail loudly before any work happens — and each pass reports
a :class:`PassProvenance` record that rides on the final
:class:`~repro.compile.program.CompiledProgram` for diagnostics and the
``python -m repro compile`` cache-statistics output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: Environment variable selecting the on-disk template store directory.
#: When set, the disk tier is enabled by default for every compilation.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class PipelineConfig:
    """Validated knobs of one pipeline run.

    None of them changes how a constraint is encoded: there is one
    encoding chain (see :func:`~repro.compile.program.compile_program`).

    Attributes
    ----------
    hard_scale:
        Override for the hard-constraint scaling factor, or ``None`` for
        the computed default (total soft weight + 1).
    disk_cache:
        Three-state switch for the on-disk template store: ``True`` /
        ``False`` force it, ``None`` enables it exactly when a cache
        directory is configured (``cache_dir`` or ``REPRO_CACHE_DIR``).
    cache_dir:
        Directory of the on-disk store; ``None`` defers to
        ``REPRO_CACHE_DIR`` and, failing that, the user cache home.
    certify:
        Run the :mod:`repro.analysis.certify` post-pass after assembly
        (off by default).  The pass attaches a
        :class:`~repro.analysis.certify.ProgramCertificate` to the
        compiled program and raises
        :class:`~repro.analysis.certify.CertificationError` on a
        ``fail`` verdict; it never changes the compiled QUBO.
    """

    hard_scale: float | None = None
    disk_cache: bool | None = None
    cache_dir: str | None = None
    certify: bool = False

    def __post_init__(self) -> None:
        """Reject invalid option combinations loudly and early."""
        if self.hard_scale is not None and self.hard_scale <= 0:
            raise ValueError("hard_scale must be positive")
        if self.cache_dir is not None and self.disk_cache is False:
            raise ValueError(
                "cache_dir was given but disk_cache=False disables the disk "
                "tier; drop one of the two"
            )
        if not isinstance(self.certify, bool):
            raise ValueError(f"certify must be a bool, got {self.certify!r}")

    @property
    def disk_enabled(self) -> bool:
        """Whether the on-disk template tier participates in this run."""
        if self.disk_cache is None:
            return self.cache_dir is not None or bool(os.environ.get(CACHE_DIR_ENV))
        return self.disk_cache

    def resolved_cache_dir(self) -> Path:
        """The directory the disk tier uses, in precedence order.

        ``cache_dir`` beats ``REPRO_CACHE_DIR`` beats the user cache home
        (``~/.cache/repro/templates``).
        """
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        env_dir = os.environ.get(CACHE_DIR_ENV)
        if env_dir:
            return Path(env_dir) / "templates"
        return Path.home() / ".cache" / "repro" / "templates"


@dataclass(frozen=True)
class PassProvenance:
    """What one pass did: name, wall time, and per-pass detail counters.

    ``items`` is the pass's natural unit of work (constraints seen,
    templates resolved, QUBOs summed); ``detail`` carries the
    pass-specific breakdown rendered by the CLI.
    """

    name: str
    wall_s: float
    items: int
    detail: Mapping[str, object]

    def describe(self) -> str:
        """One human-readable line for the CLI provenance table."""
        parts = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.name:<12} {self.wall_s * 1e3:>8.2f} ms  {self.items:>5} items  {parts}"
