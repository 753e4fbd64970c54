"""Every cache key is the same in every process, checked by running it.

The pipeline's caches — the in-memory template cache, the on-disk
template and certificate stores, and the service's program and result
tiers — are keyed by the functions listed in :func:`compute_keys`.  A
key that leans on ``hash()`` of a string, on set iteration order, or on
an object's address changes with ``PYTHONHASHSEED``, so two processes
would miss each other's entries.  The test recomputes every key in two
subprocesses, under ``PYTHONHASHSEED=0`` and ``=1``, and requires
byte-identical output.

Run this file directly (``PYTHONPATH=src python tests/test_cache_keys.py``)
to print the keys as one JSON object.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.analysis.certify import _profile_cache_key, qubo_fingerprint
from repro.compile.cache import template_key
from repro.compile.pipeline.store import TemplateStore
from repro.compile.program import compile_program
from repro.core.env import Env
from repro.core.symmetry import cache_key
from repro.service.cache import request_fingerprint
from repro.service.jobs import SolveRequest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def compute_keys() -> dict[str, str]:
    """Every cache key in the pipeline, computed for one small program.

    This dict is the explicit list of key functions the test covers; a
    new cache key belongs here.
    """
    env = Env()
    env.nck(["a", "b", "c"], [1, 2])
    env.nck(["a"], [0], soft=True)
    env.nck(["b", "c"], [1], soft=True)
    constraint = env.constraints[0]
    program = compile_program(env, disk_cache=False)
    request = SolveRequest(problem=env, timeout=1.5, retries=2, seed=7)
    return {
        "analysis.certificate_profile_key": _profile_cache_key(
            constraint, program.qubo, program.ancillas, 1.0
        ),
        "analysis.qubo_fingerprint": qubo_fingerprint(program.qubo),
        "compile.constraint_cache_key": repr(cache_key(constraint)),
        "compile.program_fingerprint": program.fingerprint,
        "compile.template_key": repr(template_key(constraint, False)),
        "compile.template_store_entry": TemplateStore("unused")
        .path_for(template_key(constraint, False))
        .name,
        "service.job_fingerprint": request.fingerprint(),
        "service.request_fingerprint": request_fingerprint(
            env, {"hard_scale": 2.0}
        ),
        "service.solver_signature": request.signature(),
    }


def test_keys_are_hashseed_independent():
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        procs.append(
            subprocess.Popen(
                [sys.executable, __file__],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
        )
    try:
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # no-op for a child that already exited
    for proc, (_out, err) in zip(procs, results):
        assert proc.returncode == 0, err.decode()
    (first, _), (second, _) = results
    assert first == second
    keys = json.loads(first)
    assert len(keys) == 9 and all(keys.values())


if __name__ == "__main__":
    json.dump(compute_keys(), sys.stdout, sort_keys=True, separators=(",", ":"))
