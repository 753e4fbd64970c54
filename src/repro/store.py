"""The one on-disk store and the one content hash.

Two caches outlive their process: the compiler's synthesized QUBO
templates (:class:`~repro.compile.pipeline.store.TemplateStore`, the
paper's Section VIII-C fix made persistent) and the certification
engine's per-constraint energy bands
(:class:`~repro.analysis.certify.CertificateStore`).  Both are thin
codecs over :class:`JSONStore`: a directory of schema-versioned JSON
entries, one file per key.  Every cache key in the package — template
entry names, certificate profile keys, QUBO fingerprints, service
request fingerprints — is a :func:`content_hash`.

Entries are written by other processes, possibly by other versions of
the code, possibly interrupted mid-write, possibly concurrently, so the
store trusts nothing it reads:

* writes are atomic (temp file, then :func:`os.replace`) and
  best-effort — a failed write counts an error and returns ``False``;
* a read checks the schema version and the key echoed in the entry,
  then hands the rest to the codec, which raises on anything it does
  not accept;
* any I/O or decoding failure deletes the entry (a directory squatting
  on the name included) and is a miss, so the value is simply
  recomputed.

The trust model follows: a malformed or mismatched entry costs time,
never correctness, and never crashes the caller.  A *well-formed*
forged entry is served — the store checks shape, not provenance — so a
caller that must trust nothing on disk turns the disk tier off.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["JSONStore", "content_hash", "finite_float"]


def content_hash(payload: Any, *, compact: bool = False) -> str:
    """SHA-256 hex digest of ``payload`` serialized as key-sorted JSON.

    ``compact`` drops the spaces after separators; the template store's
    entry names hash that form, every other key the default one.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":") if compact else None
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def finite_float(value: object) -> float:
    """A stored number as a finite float; raises ``ValueError`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"bad number: {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite number: {value!r}")
    return out


class JSONStore:
    """A directory of schema-versioned JSON entries, one file per key.

    Subclasses are codecs.  They set :attr:`schema` and :attr:`pattern`
    and define :meth:`entry_name`, :meth:`encode` and :meth:`decode`
    (plus :meth:`key_echo` when the key is not itself JSON).  Each entry
    is the object ``{"schema": ..., "key": key_echo(key), **encode(value)}``.

    ``directory`` is created on first write.  ``hits`` / ``misses`` /
    ``errors`` count loads served, loads that found nothing usable, and
    entries discarded plus writes that failed; callers report them as
    telemetry.
    """

    #: Entry schema version; entries carrying another one are discarded.
    schema: int
    #: Glob matching exactly the entry files (``len()`` and :meth:`clear`).
    pattern: str

    def __init__(self, directory: str | os.PathLike) -> None:
        """Address the store at ``directory`` (nothing is created yet)."""
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0

    def entry_name(self, key: Any) -> str:
        """The file name holding ``key``'s entry (must match :attr:`pattern`)."""
        raise NotImplementedError

    def key_echo(self, key: Any) -> Any:
        """The JSON form of ``key`` written into, and checked against, its entry."""
        return key

    def encode(self, value: Any) -> dict:
        """The entry fields carrying ``value``."""
        raise NotImplementedError

    def decode(self, entry: dict, key: Any) -> Any:
        """Rebuild the value from ``entry``; raise on anything doubtful."""
        raise NotImplementedError

    def path_for(self, key: Any) -> Path:
        """The file that holds, or would hold, ``key``'s entry."""
        return self.directory / self.entry_name(key)

    def load(self, key: Any) -> Any:
        """The stored value for ``key``, or ``None`` on any doubt (a miss)."""
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if entry["schema"] != self.schema:
                raise ValueError(f"schema mismatch: {entry['schema']!r}")
            if entry["key"] != self.key_echo(key):
                raise ValueError("key echo does not match the requested key")
            value = self.decode(entry, key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError):
            _discard(path)
            self.errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: Any, value: Any) -> bool:
        """Persist ``value`` under ``key`` atomically; False if that failed."""
        entry = {"schema": self.schema, "key": self.key_echo(key), **self.encode(value)}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp, self.path_for(key))
            except BaseException:
                _discard(Path(tmp))
                raise
        except OSError:
            self.errors += 1
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        entries = list(self.directory.glob(self.pattern))
        for path in entries:
            _discard(path)
        return len(entries)

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self.directory.glob(self.pattern))

    def stats(self) -> dict[str, int]:
        """Hit/miss/error counters as a plain dict."""
        return {"hits": self.hits, "misses": self.misses, "errors": self.errors}


def _discard(path: Path) -> None:
    """Remove a bad entry, whatever it turned out to be."""
    try:
        path.unlink()
    except OSError:
        shutil.rmtree(path, ignore_errors=True)
