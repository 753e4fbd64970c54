"""The on-disk stores: a corrupt or contended cache costs time, never correctness.

Both persistent caches are codecs over :class:`repro.store.JSONStore`:
the compiler's :class:`TemplateStore` and the certifier's
:class:`CertificateStore`.  Their shared contract is that *anything*
wrong with an entry — truncation, garbage, a stale schema, a hash
collision serving the wrong key, a wrong type, a non-finite number, a
hostile name or tag, even a directory squatting on the file name — is a
miss: the entry is deleted and the value recomputed.  A corrupted cache
must never crash a compilation or change its output.

The store-level case classes run once per codec: each ``*Cases`` mixin
has a template subclass (``TestRoundTrip``, ``TestCorruptedEntries``,
``TestWriteFailures``) and a certificate subclass (the same name with
``Certificate`` after ``Test``), so every corruption kind runs against
both stores.  The compile-level classes drive both through
:func:`compile_program`; ``TestConcurrentProcesses`` shares one
``REPRO_CACHE_DIR`` among a compile loop, a process-mode service and a
corrupter.

Run as a script (``python tests/test_compile_store.py compile|corrupt``,
with ``REPRO_CACHE_DIR`` set) the module plays one child role of that test.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import telemetry
from repro.analysis import CertificateStore, certify_program
from repro.compile import CACHE_DIR_ENV, build_template, compile_program, template_key
from repro.compile.pipeline.store import TemplateStore
from repro.core import nck
from repro.service import ServiceClient, ServiceConfig, SolveRequest, request_fingerprint
from repro.store import content_hash
from tests.test_analysis_certify import mvc_env
from tests.test_compile_pipeline import mixed_env, programs_identical

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "mixed_env_cache"


@dataclass(frozen=True)
class Codec:
    """How the suite drives one store: a key, a value, and bad fields."""

    store_class: type
    key: object
    value: object
    #: Key echo of a key no test program uses (a "hash collision").
    other_echo: object
    #: Exact, comparable form of a stored value.
    fields: Callable[[object], object]
    wrong_type: dict
    non_finite: dict
    hostile: dict


def _template_fields(template) -> tuple:
    qubo = template.qubo
    return (
        qubo.offset,
        qubo.linear,
        qubo.quadratic,
        template.num_ancillas,
        template.used_closed_form,
        template.exact_penalty,
        template.strategy,
    )


TEMPLATE = Codec(
    store_class=TemplateStore,
    key=template_key(nck(["a", "a", "b"], [1]), False),
    value=build_template(nck(["a", "a", "b"], [1]), False),
    other_echo=TemplateStore("unused").key_echo(
        template_key(nck(["a", "a", "b", "b", "b"], [4]), False)
    ),
    fields=_template_fields,
    wrong_type={"num_ancillas": "three"},
    non_finite={"offset": float("inf")},
    hostile={"linear": [["../../etc/passwd", 1.0]]},
)

CERTIFICATE = Codec(
    store_class=CertificateStore,
    key=content_hash("profile one"),
    value={
        "method": "truth-table",
        "valid_min": 0.0,
        "valid_max": 0.0,
        "invalid_min": 1.0,
        "invalid_max": 1.0,
    },
    other_echo=content_hash("profile two"),
    fields=dict,
    wrong_type={"valid_min": "abc"},
    non_finite={"invalid_max": float("inf")},
    hostile={"method": 42},
)


def _patched(path: pathlib.Path, patch: dict) -> None:
    """Rewrite the entry at ``path`` with ``patch`` applied to its fields."""
    payload = json.loads(path.read_text())
    payload.update(patch)
    path.write_text(json.dumps(payload).replace("Infinity", "1e999"))


def _squat(path: pathlib.Path) -> None:
    path.unlink()
    path.mkdir()


#: Every corruption kind, as ``kind(path, codec)``.  Each one leaves an
#: entry that no store may serve; none forges a well-formed one.
CORRUPTIONS: dict[str, Callable[[pathlib.Path, Codec], None]] = {
    "truncated_json": lambda p, c: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
    "garbage_bytes": lambda p, c: p.write_bytes(b"\x00\xff not json at all \x80"),
    "empty_file": lambda p, c: p.write_text(""),
    "schema_mismatch": lambda p, c: _patched(p, {"schema": c.store_class.schema + 1}),
    "key_echo_mismatch": lambda p, c: _patched(p, {"key": c.other_echo}),
    "wrong_value_types": lambda p, c: _patched(p, c.wrong_type),
    "non_finite_coefficient": lambda p, c: _patched(p, c.non_finite),
    "hostile_variable_names": lambda p, c: _patched(p, c.hostile),
    "directory_squatting_on_entry": lambda p, c: _squat(p),
}


def _codec_of(path: pathlib.Path) -> Codec:
    return CERTIFICATE if path.name.endswith(".cert.json") else TEMPLATE


@pytest.fixture()
def codec(request) -> Codec:
    return request.cls.codec


@pytest.fixture()
def store(codec, tmp_path):
    return codec.store_class(tmp_path / "store")


@pytest.fixture()
def entry(codec, store) -> pathlib.Path:
    """The codec's value stored under its key; returns the entry's path."""
    assert store.store(codec.key, codec.value)
    return store.path_for(codec.key)


# ---------------------------------------------------------------------------
# Store-level cases, one subclass per codec
# ---------------------------------------------------------------------------


class RoundTripCases:
    def test_load_returns_exact_template(self, codec, store, entry):
        loaded = store.load(codec.key)
        # Exact equality — JSON floats round-trip bit-for-bit.
        assert codec.fields(loaded) == codec.fields(codec.value)
        assert store.stats() == {"hits": 1, "misses": 0, "errors": 0}

    def test_missing_entry_is_a_miss(self, codec, store):
        assert store.load(codec.key) is None
        assert store.stats() == {"hits": 0, "misses": 1, "errors": 0}

    def test_len_and_clear(self, codec, store, entry):
        (store.directory / ".stray.tmp").write_text("{")  # not an entry
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0
        assert store.load(codec.key) is None


class CorruptionCases:
    """Planted corruption: every flavor is a delete-and-recompute miss."""

    def plant_and_check(self, codec, store, path, kind):
        CORRUPTIONS[kind](path, codec)
        assert store.load(codec.key) is None, "corrupted entry must be a miss"
        assert not path.exists(), "corrupted entry must be deleted"
        assert store.stats() == {"hits": 0, "misses": 1, "errors": 1}

    def test_truncated_json(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "truncated_json")

    def test_garbage_bytes(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "garbage_bytes")

    def test_empty_file(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "empty_file")

    def test_schema_mismatch(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "schema_mismatch")

    def test_key_echo_mismatch(self, codec, store, entry):
        """A file served under the wrong key (e.g. a hash collision)."""
        self.plant_and_check(codec, store, entry, "key_echo_mismatch")

    def test_wrong_value_types(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "wrong_value_types")

    def test_non_finite_coefficient(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "non_finite_coefficient")

    def test_hostile_variable_names(self, codec, store, entry):
        """A template variable outside the slot names; a method tag that
        is not one of the certifier's two."""
        self.plant_and_check(codec, store, entry, "hostile_variable_names")

    def test_directory_squatting_on_entry(self, codec, store, entry):
        self.plant_and_check(codec, store, entry, "directory_squatting_on_entry")
        assert store.store(codec.key, codec.value), "the cleared slot heals"
        assert store.load(codec.key) is not None

    def test_resynthesize_after_corruption(self, codec, store, entry):
        """The full delete-and-recompute cycle restores a good entry."""
        entry.write_text("{corrupt")
        assert store.load(codec.key) is None
        assert store.store(codec.key, codec.value)
        assert codec.fields(store.load(codec.key)) == codec.fields(codec.value)


class WriteFailureCases:
    def test_unwritable_directory_degrades_gracefully(self, codec, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        bad = codec.store_class(blocker / "store")
        assert not bad.store(codec.key, codec.value)
        assert bad.errors == 1
        assert bad.load(codec.key) is None  # still just a miss, no crash

    def test_stats_shape(self, codec, store, entry):
        store.load(codec.key)
        assert store.stats() == {"hits": 1, "misses": 0, "errors": 0}

    def test_directory_removed_after_construction(self, codec, store, entry):
        shutil.rmtree(store.directory)
        assert store.store(codec.key, codec.value)
        assert store.load(codec.key) is not None

    def test_failed_write_leaves_no_temp_file(self, codec, store, entry, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert not store.store(codec.key, codec.value)
        assert store.errors == 1
        assert [p.name for p in store.directory.iterdir()] == [entry.name]


class TestRoundTrip(RoundTripCases):
    codec = TEMPLATE


class TestCertificateRoundTrip(RoundTripCases):
    codec = CERTIFICATE


class TestCorruptedEntries(CorruptionCases):
    codec = TEMPLATE


class TestCertificateCorruptedEntries(CorruptionCases):
    codec = CERTIFICATE


class TestWriteFailures(WriteFailureCases):
    codec = TEMPLATE


class TestCertificateWriteFailures(WriteFailureCases):
    codec = CERTIFICATE


# ---------------------------------------------------------------------------
# Through certify_program and compile_program
# ---------------------------------------------------------------------------


def bands(cert) -> tuple:
    """Everything a certificate proves, without its cache bookkeeping."""
    return (
        cert.verdict,
        cert.dominance,
        cert.soft_fidelity,
        cert.feasible_lo,
        cert.feasible_hi,
        cert.infeasible_lo,
        tuple(
            (c.method, c.valid_min, c.valid_max, c.invalid_min, c.invalid_max)
            for c in cert.constraints
        ),
    )


class TestCertificateStore:
    def test_warm_run_hits(self, tmp_path):
        env = mvc_env(6)
        program = compile_program(env)
        store = CertificateStore(tmp_path / "certs")
        certify_program(env, program, store=store)
        assert len(store) > 0
        cold_misses = store.misses
        assert cold_misses > 0
        warm_store = CertificateStore(tmp_path / "certs")
        cert = certify_program(env, program, store=warm_store)
        assert cert.verdict == "pass"
        assert warm_store.misses == 0 and warm_store.hits > 0
        assert all(c.cached for c in cert.constraints if c.method != "dropped")

    def test_symmetric_constraints_share_entries(self, tmp_path):
        env = mvc_env(6)  # 6 identical edge constraints + 6 identical softs
        store = CertificateStore(tmp_path / "certs")
        certify_program(env, compile_program(env), store=store)
        assert len(store) == 2

    def test_corrupt_entries_are_discarded_and_recomputed(self, tmp_path):
        env = mvc_env(5)
        program = compile_program(env)
        store = CertificateStore(tmp_path / "certs")
        reference = certify_program(env, program, store=store)
        for path in (tmp_path / "certs").glob("*.cert.json"):
            path.write_text("{ not json")
        dirty = CertificateStore(tmp_path / "certs")
        cert = certify_program(env, program, store=dirty)
        # Every corrupt entry is discarded (an error + a miss) and then
        # recomputed; later symmetric constraints hit the fresh entries.
        assert dirty.errors == dirty.misses == 2
        assert cert.verdict == reference.verdict == "pass"

    def test_wrong_key_entry_rejected(self, tmp_path):
        store = CertificateStore(tmp_path / "certs")
        assert store.store("k1", CERTIFICATE.value)
        path = store.path_for("k1")
        path.rename(store.path_for("k2"))  # entry now lies about its key
        fresh = CertificateStore(tmp_path / "certs")
        assert fresh.load("k2") is None
        assert fresh.errors == 1

    def recertify(self, tmp_path, patch: dict | None = None):
        """Certify ``mvc_env(5)`` cold, patch (or squat) every entry, then
        certify twice more; returns the reference, the two certificates
        and their stores."""
        env = mvc_env(5)
        program = compile_program(env)
        reference = certify_program(env, program, store=CertificateStore(tmp_path))
        for path in tmp_path.glob("*.cert.json"):
            if patch is None:
                _squat(path)
            else:
                _patched(path, patch)
        runs = []
        for _ in range(2):
            store = CertificateStore(tmp_path)
            runs.append((certify_program(env, program, store=store), store))
        return reference, runs

    def test_non_numeric_band_is_recomputed(self, tmp_path):
        reference, [(cert, store), _] = self.recertify(tmp_path, {"valid_min": "abc"})
        assert bands(cert) == bands(reference)
        assert store.errors == store.misses == 2

    def test_unknown_method_is_recomputed(self, tmp_path):
        reference, [(cert, store), _] = self.recertify(tmp_path, {"method": 42})
        assert bands(cert) == bands(reference)
        assert {c.method for c in cert.constraints} == {"truth-table"}
        assert store.errors == store.misses == 2

    def test_squatting_directories_heal(self, tmp_path):
        reference, [(cert, store), (healed, warm)] = self.recertify(tmp_path)
        assert bands(cert) == bands(healed) == bands(reference)
        assert store.errors == 2
        assert warm.stats() == {"hits": 10, "misses": 0, "errors": 0}

    def test_certs_directory_removed_after_construction(self, tmp_path):
        env = mvc_env(5)
        program = compile_program(env)
        store = CertificateStore(tmp_path / "certs")
        certify_program(env, program, store=store)
        shutil.rmtree(tmp_path / "certs")
        cert = certify_program(env, program, store=store)
        assert cert.verdict == "pass" and store.errors == 0
        assert len(store) == 2

    def test_cache_dir_under_a_file_degrades(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        env = mixed_env()
        baseline = compile_program(env, disk_cache=False, certify=True)
        program = compile_program(env, cache_dir=str(blocker / "cache"), certify=True)
        assert programs_identical(baseline, program)
        assert bands(program.certificate) == bands(baseline.certificate)
        assert program.cache_stats["disk_hits"] == 0


class TestCompilationThroughCorruption:
    def test_corrupted_cache_never_changes_output(self, tmp_path):
        env = mixed_env()
        baseline = compile_program(env, disk_cache=False, certify=True)
        cold = compile_program(env, cache_dir=str(tmp_path), certify=True)
        # Corrupt every entry of both stores, each in a different way.
        paths = sorted(tmp_path.glob("*.json")) + sorted(tmp_path.glob("certs/*.json"))
        assert len(paths) == 8
        for path, kind in zip(paths, CORRUPTIONS):
            CORRUPTIONS[kind](path, _codec_of(path))
        rebuilt = compile_program(env, cache_dir=str(tmp_path), certify=True)
        for program in (cold, rebuilt):
            assert programs_identical(baseline, program)
            assert bands(program.certificate) == bands(baseline.certificate)
        assert rebuilt.cache_stats["disk_hits"] == 0
        assert rebuilt.cache_stats["disk_errors"] == 4
        # The cache healed: a third compile is all disk hits.
        healed = compile_program(env, cache_dir=str(tmp_path), certify=True)
        assert programs_identical(baseline, healed)
        assert healed.cache_stats["disk_hits"] == healed.cache_stats["templates"]
        assert all(c.cached for c in healed.certificate.constraints)

    def test_store_counter_totals(self, tmp_path):
        names = (
            "compile.disk_cache.hits",
            "compile.disk_cache.misses",
            "analysis.certify.store_hits",
            "analysis.certify.store_misses",
        )
        previous = telemetry.get_recorder()
        totals = []
        try:
            for _ in range(2):  # cold, then warm
                recorder = telemetry.enable()
                compile_program(mixed_env(), cache_dir=str(tmp_path), certify=True)
                totals.append([recorder.counter_value(n) for n in names])
        finally:
            telemetry.set_recorder(previous)
        assert totals == [[0, 4, 8, 4], [4, 0, 12, 0]]


class TestOnDiskFormat:
    def test_fixture_directory_loads_as_hits(self, tmp_path):
        """``tests/fixtures/mixed_env_cache`` holds ``mixed_env()``
        compiled with ``certify=True`` by the code before the two stores
        shared one implementation: 4 templates, and 4 certificate
        entries under ``certs/``.  Every entry must still load as a hit,
        and none may be rewritten."""
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURE, cache)
        before = {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()}
        assert len(before) == 8
        program = compile_program(mixed_env(), cache_dir=str(cache), certify=True)
        stats = program.cache_stats
        assert (stats["templates"], stats["disk_hits"], stats["disk_errors"]) == (4, 4, 0)
        assert [c.cached for c in program.certificate.constraints] == [True] * 12
        assert {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()} == before


# ---------------------------------------------------------------------------
# Three processes, one cache directory
# ---------------------------------------------------------------------------

ROLES = ("compile", "service", "corrupt")
COMPILE_ROUNDS = 30
SERVICE_ROUNDS = 15
CORRUPT_ROUNDS = 150


def _stress_envs() -> list:
    return [mixed_env(), mvc_env(5)]


def _start_together(root: pathlib.Path, role: str) -> None:
    """Wait (bounded) until every role has finished importing."""
    (root / f".ready-{role}").touch()
    deadline = time.monotonic() + 60
    while not all((root / f".ready-{r}").exists() for r in ROLES):
        if time.monotonic() > deadline:
            raise TimeoutError("the other roles never started")
        time.sleep(0.01)


def _compile_role(root: pathlib.Path) -> dict:
    envs = _stress_envs()
    baselines = [compile_program(e, disk_cache=False, certify=True) for e in envs]
    _start_together(root, "compile")
    errors = 0
    for _ in range(COMPILE_ROUNDS):
        for env, baseline in zip(envs, baselines):
            program = compile_program(env, certify=True)
            assert programs_identical(baseline, program)
            assert bands(program.certificate) == bands(baseline.certificate)
            errors += program.cache_stats["disk_errors"]
    return {"disk_errors": errors}


def _service_role(root: pathlib.Path) -> None:
    cache_dir = str(root / "templates")
    envs = _stress_envs()
    baselines = [compile_program(e, disk_cache=False, certify=True) for e in envs]
    options = {"certify": True, "cache_dir": cache_dir}
    config = ServiceConfig(mode="process", workers=2, certify=True, cache_dir=cache_dir)
    _start_together(root, "service")
    with ServiceClient(config) as client:
        for _ in range(SERVICE_ROUNDS):
            # Empty the in-memory tiers so every request compiles on a worker.
            client.service.programs.clear()
            client.service.results.clear()
            for env, baseline in zip(envs, baselines):
                request = SolveRequest(problem=env, backends="classical")
                result = client.submit(request).result(timeout=60)
                program = client.service.programs.get(request_fingerprint(env, options))
                assert result.program_fingerprint == baseline.fingerprint
                assert programs_identical(baseline, program)
                assert bands(program.certificate) == bands(baseline.certificate)


def _corrupt_role(root: pathlib.Path, seed: int = 0) -> dict:
    rng = random.Random(seed)
    templates = root / "templates"
    _start_together(root, "corrupt")
    corrupted = 0
    for _ in range(CORRUPT_ROUNDS):
        entries = sorted(templates.glob("*.json")) + sorted(templates.glob("certs/*.json"))
        if entries:
            path = rng.choice(entries)
            kind = rng.choice(sorted(CORRUPTIONS))
            try:
                CORRUPTIONS[kind](path, _codec_of(path))
                corrupted += 1
            except (OSError, ValueError):
                pass  # the entry moved under us (replaced, deleted, squatted)
        time.sleep(0.005)
    return {"corrupted": corrupted}


class TestConcurrentProcesses:
    def test_readers_see_a_valid_entry_or_a_miss(self, tmp_path):
        """A compile loop (a child process) and a ``mode="process"``
        service with two workers (driven from here) read and write one
        ``REPRO_CACHE_DIR`` while a seeded corrupter (another child)
        rewrites random entries of both stores.  Every compiled QUBO and
        certificate equals the no-cache baseline, no process fails, and
        once the corrupter stops the cache heals.  At most four
        processes run besides this one: the two children and the
        service's two workers."""
        env = dict(
            os.environ,
            **{CACHE_DIR_ENV: str(tmp_path)},
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        )
        children = ("compile", "corrupt")
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, role],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for role in children
        ]
        try:
            _service_role(tmp_path)
            outputs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()  # no-op for a child that already exited
        for role, proc, (_out, err) in zip(children, procs, outputs):
            assert proc.returncode == 0, f"{role}: {err.decode()}"
        stats = dict(zip(children, (json.loads(out) for out, _err in outputs)))
        assert stats["corrupt"]["corrupted"] > 0
        assert stats["compile"]["disk_errors"] > 0, "the readers never met corruption"
        assert not list(tmp_path.rglob("*.tmp")), "a write left its temp file"

        cache_dir = str(tmp_path / "templates")
        for program_env in _stress_envs():
            compile_program(program_env, cache_dir=cache_dir, certify=True)
            second = compile_program(program_env, cache_dir=cache_dir, certify=True)
            assert second.cache_stats["disk_hits"] == second.cache_stats["templates"]
            assert second.cache_stats["disk_errors"] == 0
            assert all(c.cached for c in second.certificate.constraints)


if __name__ == "__main__":
    roles = {"compile": _compile_role, "corrupt": _corrupt_role}
    print(json.dumps(roles[sys.argv[1]](pathlib.Path(os.environ[CACHE_DIR_ENV]))))
