"""The ``python -m repro lint`` and ``python -m repro certify`` subcommands.

``lint`` has two modes sharing one reporting path:

``python -m repro lint <problem> [--n N]``
    Generate a Table I problem instance (the same generators ``solve``
    and ``compile`` use) and run the program linter over its ``Env``.

``python -m repro lint --self``
    Run the codebase lint engine's per-module REP1xx–4xx rules over
    every file of the installed ``repro`` package.

``python -m repro certify <problem> [--n N] [--out FILE]`` compiles the
same instance and runs the compositional certification engine
(:mod:`repro.analysis.certify`) over the compiled artifact, printing
the proof summary (verdict, dominance margin, soft fidelity) and any
NCK4xx findings; ``--out`` additionally serializes the certificate as
JSON.  On programs small enough to enumerate it also cross-checks the
verdict against the exhaustive verifier; beyond the cap
(:class:`~repro.compile.validate.ValidationCapExceeded`) the
certificates are the only checker that can run.

All modes render text by default or the versioned JSON envelope with
``--json``, gate the display with ``--min-severity``, and exit 2 on any
error-severity finding, 1 on warnings, 0 when clean — so ``make lint``
and ``make certify`` can gate CI on the exit code alone.
"""

from __future__ import annotations

import argparse
import json

from .diagnostics import Severity, exit_code, gate
from .report import JSON_SCHEMA_VERSION, render_json, render_text


def configure_lint(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint``-specific arguments to its subparser."""
    from ..__main__ import SOLVE_PROBLEMS

    parser.add_argument(
        "problem",
        nargs="?",
        choices=SOLVE_PROBLEMS,
        help="problem family to generate and lint (omit with --self)",
    )
    parser.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="lint the repro codebase itself instead of a program",
    )
    parser.add_argument(
        "--n", type=int, default=12, help="instance size (nodes/elements/variables)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report envelope"
    )
    parser.add_argument(
        "--min-severity",
        choices=[str(s) for s in Severity],
        default="info",
        help="hide findings below this severity (also gates the exit code)",
    )
    parser.add_argument(
        "--hard-scale",
        type=float,
        default=None,
        help="intended hard_scale, enabling the NCK201 energy-scale check",
    )
    parser.add_argument(
        "--qubit-budget",
        type=int,
        default=None,
        help="device qubit count, enabling the NCK301 budget check",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Run the requested analyzer and return the process exit code."""
    import sys

    if args.self_lint == (args.problem is not None):
        print(
            "repro lint: error: name a problem or pass --self (not both)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if args.self_lint:
        from .codelint import lint_package

        diagnostics = lint_package()
    else:
        from ..__main__ import _build_problem
        from .program import lint_program

        instance = _build_problem(args.problem, args.n, args.seed)
        diagnostics = lint_program(
            instance.build_env(),
            hard_scale=args.hard_scale,
            qubit_budget=args.qubit_budget,
        )

    minimum = Severity.parse(args.min_severity)
    if args.json:
        print(render_json(diagnostics, minimum=minimum))
    else:
        print(render_text(diagnostics, minimum=minimum))
    return exit_code(gate(diagnostics, minimum))


def configure_certify(parser: argparse.ArgumentParser) -> None:
    """Attach the ``certify``-specific arguments to its subparser."""
    from ..__main__ import SOLVE_PROBLEMS

    parser.add_argument(
        "problem",
        choices=SOLVE_PROBLEMS,
        help="problem family to generate, compile, and certify",
    )
    parser.add_argument(
        "--n", type=int, default=24, help="instance size (nodes/elements/variables)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report envelope"
    )
    parser.add_argument(
        "--min-severity",
        choices=[str(s) for s in Severity],
        default="info",
        help="hide findings below this severity (also gates the exit code)",
    )
    parser.add_argument(
        "--hard-scale",
        type=float,
        default=None,
        help="override the hard-constraint scale before certifying it",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the serialized certificate JSON to FILE",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory; certificates land in its certs/ subdirectory "
        "(default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk certificate cache for this run",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="never fall back to exhaustive enumeration (pure certificates)",
    )


def run_certify(args: argparse.Namespace) -> int:
    """Compile, certify, and report; returns the process exit code."""
    import sys

    from ..__main__ import _build_problem
    from ..compile.pipeline import PipelineConfig
    from ..compile.validate import (
        ProgramValidationError,
        ValidationCapExceeded,
        verify_compiled_program,
    )
    from .certify import certificate_diagnostics, certificate_store, certify_program

    instance = _build_problem(args.problem, args.n, args.seed)
    env = instance.build_env()
    try:
        program = env.to_qubo(hard_scale=args.hard_scale, cache_dir=args.cache_dir)
    except ValueError as err:
        print(f"repro certify: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None

    store = (
        None if args.no_cache else certificate_store(PipelineConfig(cache_dir=args.cache_dir))
    )

    cert = certify_program(
        env, program, fallback=not args.no_fallback, store=store
    )
    diagnostics = certificate_diagnostics(cert)

    total_vars = len(program.variables) + len(program.ancillas)
    try:
        verify_compiled_program(env, program)
        cross_check = "exhaustive enumeration agrees"
    except ValidationCapExceeded as err:
        cross_check = f"beyond the enumeration cap ({err}); certificates only"
    except ProgramValidationError as err:
        cross_check = f"exhaustive enumeration fails: {err}"

    minimum = Severity.parse(args.min_severity)
    if args.json:
        shown = gate(diagnostics, minimum)
        print(
            json.dumps(
                {
                    "version": JSON_SCHEMA_VERSION,
                    "verdict": cert.verdict,
                    "cross_check": cross_check,
                    "certificate": cert.to_dict(),
                    "diagnostics": [d.to_dict() for d in shown],
                },
                indent=2,
            )
        )
    else:
        margin = cert.margin
        cached = sum(1 for c in cert.constraints if c.cached)
        print(
            f"problem      {args.problem} --n {args.n}: "
            f"{total_vars} variables ({len(program.ancillas)} ancillas), "
            f"{len(cert.constraints)} constraints, "
            f"hard_scale {cert.hard_scale:g}"
        )
        print(
            f"verdict      {cert.verdict.upper()} "
            f"(dominance {cert.dominance}, soft fidelity {cert.soft_fidelity}"
            + (f", margin {margin:g}" if margin is not None else "")
            + ")"
        )
        print(
            f"certificates {len(cert.constraints)} constraints "
            f"({cached} from cache"
            + (f", store at {store.directory}" if store is not None else "")
            + ")"
        )
        print(f"cross-check  {cross_check}")
        print(render_text(diagnostics, minimum=minimum))

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(cert.to_json())
            handle.write("\n")
        if not args.json:
            print(f"certificate  written to {args.out}")

    return exit_code(gate(diagnostics, minimum))
