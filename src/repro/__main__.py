"""Command-line entry point: paper artifacts plus the portfolio solver.

Usage::

    python -m repro table1
    python -m repro fig7 [--full] [--seed N]
    python -m repro fig8 | fig9 | fig10 | fig11 | fig12
    python -m repro timing
    python -m repro report [-o report.md]
    python -m repro all [--full]
    python -m repro trace <artifact>      # run with telemetry + report
    python -m repro table1 --telemetry    # same, flag form
    python -m repro solve vertex-cover --n 20 \\
        [--backends classical,annealing] [--strategy race] \\
        [--timeout S] [--retries K] [--seed N]
    python -m repro compile 3sat --n 20 \\
        [--cache-dir DIR] [--no-disk-cache] [--encoding MODE]
    python -m repro lint vertex-cover --n 20 \\
        [--json] [--min-severity LEVEL] [--hard-scale X] [--qubit-budget Q]
    python -m repro lint --self [--json] [--min-severity LEVEL]
    python -m repro certify vertex-cover --n 24 \\
        [--json] [--min-severity LEVEL] [--hard-scale X] [--out FILE] \\
        [--cache-dir DIR] [--no-cache] [--no-fallback]
    python -m repro serve [--requests N] [--tenants T] [--workers W] \\
        [--mode thread|process] [--problem FAMILY] [--n SIZE] \\
        [--backends classical] [--rate R] [--burst B]

Artifact subcommands print the measured rows/series of one paper
artifact (the same output the benchmark harness produces, without
pytest).  ``solve`` generates a problem instance from the Table I
library and runs it through the :mod:`repro.runtime` portfolio —
racing, merging, or falling back across the classical, annealing, and
QAOA backends — then prints the winning solution and the per-attempt
provenance.  ``compile`` runs the same instance through the staged
compiler pipeline only (see ``docs/compiler.md``) and prints the QUBO
shape, the per-pass provenance table, and the in-memory/on-disk cache
statistics — with ``--cache-dir DIR`` pointing the persistent template
store somewhere explicit.  ``lint`` runs the static analyzers of
:mod:`repro.analysis` — over a generated program, or over the repro
codebase itself with ``--self`` (the per-module REP1xx–4xx rules) —
and exits 2/1/0 for errors/warnings/clean (see ``docs/analysis.md``).
``certify`` compiles an instance and runs the compositional
certification engine (:mod:`repro.analysis.certify`) over the artifact
— proving the hard dominance and soft fidelity claims without
enumeration, serializing the certificate with ``--out``, and exiting by
the same 2/1/0 convention.
``serve`` runs a self-contained demo workload through the multi-tenant
solve service (:mod:`repro.service`): several tenants issue repeated
requests under token-bucket quotas, so the output shows admission
decisions, fingerprint cache hits vs cold compiles, and the final
service stats after a graceful drain (see ``docs/service.md``).

With ``trace`` (or ``--telemetry``, or ``REPRO_TELEMETRY=1`` in the
environment) the run is instrumented: every pipeline stage records
spans and metrics, and a per-stage telemetry report — compile-cache hit
rate, embedding attempts, anneal sweep throughput, QAOA iterations,
portfolio attempt/retry/timeout tallies, span timings — is printed
after the command output.  ``--telemetry-out FILE`` additionally dumps
the raw events as JSONL (see ``docs/observability.md``).

All subcommands, their help strings, and the ``trace``/``all`` rosters
derive from the single :data:`COMMANDS` registry below — adding a
command there is the only step, so the CLI and its documentation cannot
drift apart.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import telemetry


# ---------------------------------------------------------------------------
# Artifact runners
# ---------------------------------------------------------------------------


def _table1(args) -> None:
    from .experiments import table1

    print(table1.render(table1.run()))


def _fig7(args) -> None:
    from .experiments import fig7, format_table
    from .experiments.plotting import ascii_series
    from .experiments.scaling import cover_study, edge_study, sat_study, vertex_study

    if args.full:
        points = None
    else:
        points = (
            vertex_study(triangles=(3, 5, 7))
            + edge_study(edges=(18, 31, 48, 63))
            + cover_study(sizes=((4, 4), (8, 8), (12, 12)))
            + sat_study(sizes=((5, 8), (8, 14)))
        )
    tallies = fig7.run(points=points, config=fig7.Fig7Config(seed=args.seed))
    print(format_table(sorted(tallies, key=lambda t: (t.problem, t.physical_qubits))))
    series = {}
    for t in tallies:
        series.setdefault(t.problem, []).append((t.physical_qubits, t.pct_optimal))
    print("\nFigure 7 — % optimal vs physical qubits:")
    print(ascii_series(series, x_label="physical qubits", y_label="% optimal"))


def _fig8_10(args, which: str) -> None:
    from .experiments import fig8_10, format_table
    from .experiments.plotting import ascii_series

    metrics = fig8_10.run(config=fig8_10.Fig8Config(seed=args.seed))
    columns = {
        "fig8": ["problem", "label", "logical_variables", "qubits_used", "quality"],
        "fig9": ["problem", "label", "depth", "quality"],
        "fig10": ["problem", "label", "constraints", "depth"],
    }[which]
    print(format_table(sorted(metrics, key=lambda m: (m.problem, m.depth)), columns))
    if which == "fig10":
        series = {}
        for m in metrics:
            series.setdefault(m.problem, []).append((m.constraints, m.depth))
        print("\nFigure 10 — constraints vs depth:")
        print(ascii_series(series, x_label="constraints", y_label="depth"))


def _fig11(args) -> None:
    from .experiments import fig11

    obs = fig11.run()
    for row in fig11.boxplot_summary(obs):
        print(
            f"vars={row['num_variables']:<4} n={row['count']:<4} "
            f"min={row['min']:.1f} q1={row['q1']:.1f} med={row['median']:.1f} "
            f"q3={row['q3']:.1f} max={row['max']:.1f}"
        )


def _fig12(args) -> None:
    from .experiments import fig12

    config = fig12.Fig12Config(
        sizes=(9, 15, 21, 27, 33, 39) if args.full else (9, 15, 21, 27),
        repetitions=30 if args.full else 10,
    )
    points = fig12.run(config)
    fit = fig12.polynomial_fit(points)
    for n, median in sorted(fit["medians"].items()):
        print(f"nodes={n:<4} median={median:.4f}s")
    print(
        f"fit: t ≈ {fit['coefficient']:.2e} · n^{fit['degree']:.2f} "
        f"(R² = {fit['r_squared']:.3f})"
    )


def _report(args) -> None:
    from .experiments.report import generate_report

    text = generate_report(seed=args.seed, full=args.full)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)


def _timing(args) -> None:
    from .experiments.timing import dwave_job_breakdown, ibm_execution_breakdown

    print("D-Wave job breakdown (s):")
    for key, value in dwave_job_breakdown(100).items():
        print(f"  {key:16s} {value:.4f}")
    print("IBM QAOA execution breakdown (s):")
    for key, value in ibm_execution_breakdown().items():
        print(f"  {key:24s} {value:.1f}")


def _all(args) -> None:
    for cmd in COMMANDS:
        if not cmd.artifact or cmd.name in ("report", "all"):
            continue
        print(f"\n{'=' * 74}\n{cmd.name.upper()}\n{'=' * 74}")
        with telemetry.span(f"experiments.{cmd.name}"):
            cmd.run(args)


# ---------------------------------------------------------------------------
# The portfolio solver subcommand
# ---------------------------------------------------------------------------

#: Problem generators available to ``solve`` (all from ``repro.problems``).
SOLVE_PROBLEMS = (
    "vertex-cover",
    "max-cut",
    "clique-cover",
    "map-coloring",
    "exact-cover",
    "set-cover",
    "redundant-cover",
    "3sat",
)


def _build_problem(name: str, n: int, seed: int):
    """Build a Table I problem instance of size ``n`` named ``name``."""
    from .problems import (
        CliqueCover,
        ExactCover,
        KSat,
        MapColoring,
        MaxCut,
        MinSetCover,
        MinVertexCover,
        RedundantCover,
        circulant_graph,
        vertex_scaling_graph,
    )

    rng = np.random.default_rng(seed)
    if name == "vertex-cover":
        return MinVertexCover(circulant_graph(n))
    if name == "max-cut":
        return MaxCut(circulant_graph(n))
    if name == "clique-cover":
        k = max(1, n // 3)
        return CliqueCover(vertex_scaling_graph(k), k)
    if name == "map-coloring":
        return MapColoring(vertex_scaling_graph(max(1, n // 3)), 3)
    if name == "exact-cover":
        return ExactCover.random_satisfiable(n, n, rng)
    if name == "set-cover":
        return MinSetCover.from_exact_cover(ExactCover.random_satisfiable(n, n, rng))
    if name == "redundant-cover":
        return RedundantCover.random_satisfiable(n, max(3, n), rng)
    if name == "3sat":
        return KSat.random_3sat(n, max(1, int(1.7 * n)), rng)
    raise ValueError(f"unknown problem {name!r}")


def _parse_backends(args) -> list:
    """Resolve ``--backends`` into adapter objects, honoring the
    annealing/QAOA flags (``--num-reads``, ``--noiseless``)."""
    from .runtime import make_backend

    extras = {
        "annealing": {"num_reads": args.num_reads, "noiseless": args.noiseless},
        "anneal": {"num_reads": args.num_reads, "noiseless": args.noiseless},
        "dwave": {"num_reads": args.num_reads, "noiseless": args.noiseless},
        "qaoa": {"noiseless": args.noiseless},
        "circuit": {"noiseless": args.noiseless},
    }
    names = [s.strip() for s in args.backends.split(",") if s.strip()]
    return [make_backend(name, **extras.get(name, {})) for name in names]


def _configure_solve(parser: argparse.ArgumentParser) -> None:
    """Attach the ``solve``-specific arguments to its subparser."""
    parser.add_argument("problem", choices=SOLVE_PROBLEMS, help="problem family")
    parser.add_argument("--n", type=int, default=12, help="instance size (nodes/elements/variables)")
    parser.add_argument(
        "--backends",
        default="classical,annealing",
        help="comma-separated backend names (classical, annealing, qaoa)",
    )
    parser.add_argument(
        "--strategy",
        choices=("race", "ensemble", "fallback"),
        default="race",
        help="portfolio strategy (see docs/runtime.md)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-backend deadline in seconds"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="total attempts per stochastic backend on infeasible samples",
    )
    parser.add_argument(
        "--num-reads", type=int, default=100, help="annealing reads per job"
    )
    parser.add_argument(
        "--noiseless", action="store_true", help="noise-free device profiles"
    )


def _solve(args) -> None:
    from .runtime import solve as portfolio_solve

    instance = _build_problem(args.problem, args.n, args.seed)
    env = instance.build_env()
    print(f"problem  {args.problem} --n {args.n}: {env!r}")
    result = portfolio_solve(
        env,
        backends=_parse_backends(args),
        strategy=args.strategy,
        timeout=args.timeout,
        retries=args.retries,
        seed=args.seed,
    )
    print(result.summary())
    print(f"verified {instance.verify(result.solution.assignment)}")


# ---------------------------------------------------------------------------
# The compiler subcommand
# ---------------------------------------------------------------------------


def _configure_compile(parser: argparse.ArgumentParser) -> None:
    """Attach the ``compile``-specific arguments to its subparser."""
    parser.add_argument("problem", choices=SOLVE_PROBLEMS, help="problem family")
    parser.add_argument(
        "--n", type=int, default=12, help="instance size (nodes/elements/variables)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk template store directory (default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the on-disk template store for this run",
    )
    from .compile.encodings import encoding_modes

    parser.add_argument(
        "--encoding",
        choices=encoding_modes(),
        default="auto",
        help=(
            "per-constraint encoding selection: 'auto' keeps the default "
            "penalty strategy (byte-identical), 'best' runs the verified "
            "cost-model portfolio, a strategy name forces that encoding "
            "where it applies"
        ),
    )


def _compile(args) -> None:
    """Compile a generated problem instance and print the pass breakdown."""
    instance = _build_problem(args.problem, args.n, args.seed)
    env = instance.build_env()
    print(f"problem  {args.problem} --n {args.n}: {env!r}")
    try:
        compiled = env.to_qubo(
            disk_cache=False if args.no_disk_cache else None,
            cache_dir=args.cache_dir,
            encoding=args.encoding,
        )
    except ValueError as err:
        # Invalid option combinations (--cache-dir with --no-disk-cache)
        # follow the argparse convention: message on stderr, exit 2.
        print(f"repro compile: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    q = compiled.qubo
    print(
        f"qubo     {len(compiled.variables)} variables + "
        f"{len(compiled.ancillas)} ancillas, "
        f"{len(q.linear)} linear + {len(q.quadratic)} quadratic terms, "
        f"hard_scale {compiled.hard_scale:g}"
    )
    print("passes")
    for record in compiled.provenance:
        print(f"  {record.describe()}")
    stats = compiled.cache_stats
    print(
        f"cache    memory {stats['hits']} hits / {stats['misses']} misses, "
        f"{stats['templates']} templates"
    )
    if stats.get("disk_enabled"):
        print(
            f"         disk {stats['disk_hits']} hits / {stats['disk_misses']} misses"
            + (f", {stats['disk_errors']} errors" if stats["disk_errors"] else "")
        )
    else:
        print("         disk tier disabled")
    if compiled.encoding_decisions:
        from .analysis.encodings import encoding_diagnostics

        print(f"encoding mode {compiled.encoding}, per-class decisions")
        for decision in compiled.encoding_decisions:
            print(f"  {decision.describe()}")
        for finding in encoding_diagnostics(compiled.encoding_decisions):
            print(f"  {finding.render()}")


# ---------------------------------------------------------------------------
# The lint subcommand (implemented in repro.analysis.cli)
# ---------------------------------------------------------------------------


def _configure_lint(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint``-specific arguments to its subparser."""
    from .analysis.cli import configure_lint

    configure_lint(parser)


def _lint(args) -> int:
    """Run the requested analyzer; exit 2 on errors, 1 on warnings."""
    from .analysis.cli import run_lint

    return run_lint(args)


# ---------------------------------------------------------------------------
# The certify subcommand (implemented in repro.analysis.cli)
# ---------------------------------------------------------------------------


def _configure_certify(parser: argparse.ArgumentParser) -> None:
    """Attach the ``certify``-specific arguments to its subparser."""
    from .analysis.cli import configure_certify

    configure_certify(parser)


def _certify(args) -> int:
    """Compile and certify an instance; exit 2 on errors, 1 on warnings."""
    from .analysis.cli import run_certify

    return run_certify(args)


# ---------------------------------------------------------------------------
# The serve subcommand — demo workload through the solve service
# ---------------------------------------------------------------------------


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    """Attach the ``serve``-specific arguments to its subparser."""
    parser.add_argument(
        "--requests", type=int, default=24, help="total requests across all tenants"
    )
    parser.add_argument(
        "--tenants", type=int, default=3, help="number of tenants issuing requests"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="concurrent scheduler slots"
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="where job bodies execute (see docs/service.md)",
    )
    parser.add_argument(
        "--problem",
        choices=SOLVE_PROBLEMS,
        default="vertex-cover",
        help="problem family each tenant solves",
    )
    parser.add_argument(
        "--n", type=int, default=9, help="instance size (nodes/elements/variables)"
    )
    parser.add_argument(
        "--backends",
        default="classical",
        help="comma-separated backend names for every request",
    )
    parser.add_argument(
        "--rate", type=float, default=50.0, help="token-bucket refill (requests/s)"
    )
    parser.add_argument(
        "--burst", type=int, default=100, help="token-bucket capacity per tenant"
    )


def _serve(args) -> None:
    """Run the demo workload: tenants × repeated requests, then stats."""
    from .service import AdmissionRejected, ServiceClient, ServiceConfig, TenantQuota

    config = ServiceConfig(
        workers=args.workers,
        mode=args.mode,
        default_quota=TenantQuota(rate=args.rate, burst=args.burst),
    )
    tenants = [f"tenant-{i}" for i in range(max(1, args.tenants))]
    # One structurally distinct instance per tenant (sizes n, n+1, ...):
    # each tenant's first request is a cold compile, every repeat
    # exercises the fingerprint-memoized path.
    instances = {
        t: _build_problem(args.problem, args.n + i, args.seed + i)
        for i, t in enumerate(tenants)
    }
    print(
        f"serving {args.requests} requests from {len(tenants)} tenants "
        f"({args.workers} {args.mode} workers, backends {args.backends}, "
        f"quota {args.rate:g}/s burst {args.burst})"
    )
    rejected = 0
    with ServiceClient(config) as client:
        for k in range(args.requests):
            tenant = tenants[k % len(tenants)]
            try:
                outcome = client.solve(
                    instances[tenant],
                    tenant=tenant,
                    backends=args.backends,
                    seed=args.seed,
                )
            except AdmissionRejected as err:
                rejected += 1
                print(f"{tenant:12s} req {k + 1:<3d} rejected ({err.reason})")
                continue
            path = (
                "hit " if outcome.cache_hit else "warm" if outcome.compile_hit else "cold"
            )
            print(
                f"{tenant:12s} req {k + 1:<3d} {path}  "
                f"{outcome.wall_s * 1e3:8.1f} ms  winner {outcome.result.winner}"
            )
        client.drain()
        stats = client.stats()
    print(
        f"\ncompleted {stats['completed']}, rejected {rejected}; "
        f"program cache {stats['program_cache']['hits']} hits / "
        f"{stats['program_cache']['misses']} misses; "
        f"result cache {stats['result_cache']['hits']} hits / "
        f"{stats['result_cache']['misses']} misses"
    )


# ---------------------------------------------------------------------------
# The command registry — the single source of truth for the CLI surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI subcommand.

    ``name`` and ``help`` feed argparse; ``run`` executes with the parsed
    namespace and may return an exit code (``None`` means 0);
    ``configure`` (optional) attaches subcommand-specific arguments;
    ``artifact`` marks paper artifacts, which are the commands ``trace``
    accepts and ``all`` iterates, and which run inside an
    ``experiments.<name>`` telemetry span.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], int | None]
    configure: Callable[[argparse.ArgumentParser], None] | None = None
    artifact: bool = True


#: Every subcommand, in display order.  ``trace`` is synthesized from
#: this table rather than listed in it.
COMMANDS: tuple[Command, ...] = (
    Command("table1", "Table I: complexity comparison", _table1),
    Command("fig7", "Figure 7: D-Wave % optimal vs physical qubits", _fig7),
    Command("fig8", "Figure 8: IBM qubits used", lambda a: _fig8_10(a, "fig8")),
    Command("fig9", "Figure 9: IBM circuit depth", lambda a: _fig8_10(a, "fig9")),
    Command("fig10", "Figure 10: constraints vs depth", lambda a: _fig8_10(a, "fig10")),
    Command("fig11", "Figure 11: D-Wave job time vs size", _fig11),
    Command("fig12", "Figure 12: classical scaling fit", _fig12),
    Command("timing", "Section VIII-C timing breakdowns", _timing),
    Command("report", "full measured report (optionally to -o FILE)", _report),
    Command("all", "every artifact above, in sequence", _all),
    Command(
        "solve",
        "portfolio-solve a generated problem instance",
        _solve,
        configure=_configure_solve,
        artifact=False,
    ),
    Command(
        "compile",
        "compile a generated problem instance through the staged pipeline",
        _compile,
        configure=_configure_compile,
        artifact=False,
    ),
    Command(
        "lint",
        "statically analyze a generated program, or the codebase (--self)",
        _lint,
        configure=_configure_lint,
        artifact=False,
    ),
    Command(
        "certify",
        "compile an instance and prove hard dominance + soft fidelity",
        _certify,
        configure=_configure_certify,
        artifact=False,
    ),
    Command(
        "serve",
        "run a demo workload through the multi-tenant solve service",
        _serve,
        configure=_configure_serve,
        artifact=False,
    ),
)

#: Artifact names, derived from the registry (kept as a module attribute
#: for tooling that introspects the CLI surface).
ARTIFACTS = [c.name for c in COMMANDS if c.artifact]


def _build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree from :data:`COMMANDS`."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--full", action="store_true", help="full-scale sweeps")
    common.add_argument("--seed", type=int, default=2022)
    common.add_argument("-o", "--output", default=None, help="report output path")
    common.add_argument(
        "--telemetry",
        action="store_true",
        help="record pipeline telemetry and print the per-stage report",
    )
    common.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help="also dump raw telemetry events as JSON lines to FILE",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures, or portfolio-solve "
        "a problem instance.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for cmd in COMMANDS:
        # argparse %-interpolates help strings, so a literal "%" in the
        # registry (fig7's "% optimal") must be escaped here, at the
        # registry -> argparse boundary.
        p = sub.add_parser(cmd.name, help=cmd.help.replace("%", "%%"), parents=[common])
        if cmd.configure is not None:
            cmd.configure(p)
    tracer = sub.add_parser(
        "trace", help="run an artifact with telemetry + report", parents=[common]
    )
    tracer.add_argument(
        "traced",
        choices=ARTIFACTS,
        metavar="artifact",
        help="the artifact to run under tracing",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested command, report telemetry.

    Returns the process exit code (0 on success).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)

    name = args.traced if args.command == "trace" else args.command
    if (
        args.command == "trace" or args.telemetry or args.telemetry_out
    ) and not telemetry.enabled():
        telemetry.enable()

    command = next(c for c in COMMANDS if c.name == name)
    if command.artifact and command.name != "all":
        with telemetry.span(f"experiments.{name}"):
            rc = command.run(args)
    else:
        rc = command.run(args)

    if telemetry.enabled():
        print()
        print(telemetry.render_report())
        if args.telemetry_out:
            telemetry.write_jsonl(args.telemetry_out)
            print(f"telemetry events written to {args.telemetry_out}")
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main())
