"""``python -m repro`` — package banner, the trace demo, and the server.

The experiment harness lives at ``python -m repro.experiments``; the
``trace`` subcommand here runs one demo query end-to-end with the span
tracer active and writes the full observability artifact set (see
docs/observability.md)::

    python -m repro trace Q1 --out trace_out/

emits ``trace_out/trace.jsonl`` (hierarchical span trace),
``trace_out/metrics.txt`` (Prometheus text) and ``trace_out/manifest.json``
(run manifest), and prints the human span-tree report.  The demo forces
the from-scratch ``bb`` solver backend so the trace includes node-level
branch-and-bound search profiling.

The ``explain`` subcommand sends one ``explain=true`` workload query to
an in-process :class:`~repro.service.scheduler.QueryScheduler` and prints
the structured EXPLAIN account it returns (see :mod:`repro.obs.explain`): the
decomposition map, per-component provenance (tier, cache level, fabric,
B&B nodes, prunes by reason), a time-ordered bound-convergence chart,
and — with ``--infeasible`` (which injects a contradictory constraint)
— the named-constraint IIS::

    python -m repro explain Q1 --precision tight
    python -m repro explain Q1 --infeasible
    python -m repro explain Q1 --json

The ``serve`` subcommand starts the long-lived aggregate-query service
(see docs/service.md): it generates and encodes a fixture database, keeps
one solve session per ``(scheme, k)`` resident, and answers
``POST /v1/query`` concurrently with deadlines, in-flight dedup and
degradation to containing intervals::

    python -m repro serve --port 8080 --schemes km --k 2

Performance observability (see docs/observability.md): ``serve --profile``
attaches the sampling profiler (collapsed stacks on shutdown),
``serve --slow-threshold-ms`` captures over-budget requests to an on-disk
ring, and ``python -m repro perfcheck`` gates against the committed
``benchmarks/BENCH_perfcheck.json`` baseline.
"""

from __future__ import annotations

import argparse
import sys

import repro


def _banner() -> int:
    print(
        f"repro {repro.__version__} — LICM reproduction "
        "(Cormode, Shen, Srivastava, Yu; ICDE 2012)\n"
        "\n"
        "  python -m repro.experiments all        regenerate figures 5/6/7\n"
        "  python -m repro.experiments utility    Section V-D utility table\n"
        "  python -m repro trace Q1               traced demo query + metrics\n"
        "  python -m repro explain Q1             EXPLAIN one query (provenance + convergence)\n"
        "  python -m repro serve                  HTTP aggregate-query service\n"
        "  python -m repro perfcheck              perf-regression gate\n"
        "  python examples/quickstart.py          the paper's running example\n"
        "  pytest tests/                          the test suite\n"
        "  pytest benchmarks/ --benchmark-only    benchmark + ablation suite\n"
        "\n"
        "Docs: README.md, DESIGN.md, EXPERIMENTS.md, docs/"
    )
    return 0


def _trace(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.obs import (
        JsonlSink,
        Tracer,
        activate,
        build_manifest,
        build_metrics,
        global_registry,
        render_registries,
        render_report,
        validate_manifest,
        validate_trace,
        write_manifest,
    )

    # A deliberately small workload: the point is a readable trace in
    # seconds, not a figure reproduction.  The 'bb' backend exercises the
    # branch-and-bound search profiler.
    config = ExperimentConfig(
        num_transactions=args.transactions,
        num_items=96,
        k_values=(args.k,),
        mc_samples=5,
        seed=3,
        solver_backend=args.backend,
    )
    context = ExperimentContext(config)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.jsonl")
    metrics_path = os.path.join(args.out, "metrics.txt")
    manifest_path = os.path.join(args.out, "manifest.json")

    with JsonlSink(trace_path) as sink:
        tracer = Tracer([sink], sample_every=args.sample_every)
        with activate(tracer):
            answer = context.licm_answer(args.query, args.scheme, args.k)
            mc = context.mc_answer(args.query, args.scheme, args.k)
    context.close()

    with open(metrics_path, "w", encoding="utf-8") as handle:
        handle.write(render_registries((build_metrics(tracer), global_registry())))
    manifest = build_manifest(
        config=config,
        tracer=tracer,
        sessions=context.cache_stats(),
        extra={
            "demo_query": args.query,
            "scheme": args.scheme,
            "k": args.k,
            "licm_bounds": [answer.lower, answer.upper],
            "mc_observed": [mc.minimum, mc.maximum],
            "artifacts": {"trace": trace_path, "metrics": metrics_path},
        },
    )
    write_manifest(manifest_path, manifest)

    print(render_report(tracer))
    print()
    print(f"LICM bounds: [{answer.lower}, {answer.upper}]  "
          f"MC observed: [{mc.minimum}, {mc.maximum}]")
    print(f"trace:    {trace_path} ({sink.written} spans)")
    print(f"metrics:  {metrics_path}")
    print(f"manifest: {manifest_path}")
    problems = validate_trace(trace_path, single_trace=True) + validate_manifest(
        manifest_path
    )
    if problems:
        print("VALIDATION PROBLEMS:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    return 0


def _explain(args: argparse.Namespace) -> int:
    import json

    from repro.core.linexpr import linear_sum
    from repro.core.pruning import prune_fixpoint
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.obs import SpanBuffer, Tracer, activate
    from repro.obs.explain import SolveExplanation
    from repro.queries.licm_eval import evaluate_licm
    from repro.queries.workload import QUERY_BUILDERS
    from repro.service.api import QueryRequest
    from repro.service.scheduler import QueryScheduler

    config = ExperimentConfig(
        num_transactions=args.transactions,
        num_items=96,
        k_values=(args.k,),
        mc_samples=5,
        seed=3,
        solver_backend=args.backend,
    )
    context = ExperimentContext(config)
    # One explain=true request through an in-process scheduler, which
    # mines the request's finished span tree from this buffer exactly
    # like the service does.
    buffer = SpanBuffer()
    tracer = Tracer([buffer], retain=False, sample_every=args.sample_every)
    try:
        with activate(tracer), QueryScheduler(
            context, workers=1, span_buffer=buffer
        ) as scheduler:
            scheduler.warm([(args.scheme, args.k)])
            if args.infeasible:
                # x >= 1 and x <= 0 on the lowest-numbered variable the
                # query's objective reaches (a base tuple variable: the
                # encoding creates those before any lineage), a guaranteed
                # two-constraint conflict on an otherwise-real encoding.
                encoded = context.encoding(args.scheme, args.k).encoded
                plan = QUERY_BUILDERS[args.query](encoded, config.params)
                with encoded.model.scoped():
                    objective = evaluate_licm(plan, encoded.relations)
                    reached = prune_fixpoint(encoded.model.constraints, objective.coeffs)
                    lowest = min(reached.variables)
                target = encoded.model.pool.get(lowest)
                encoded.model.add(linear_sum([target]) >= 1)
                encoded.model.add(linear_sum([target]) <= 0)
            response = scheduler.execute(
                QueryRequest(
                    query=args.query,
                    scheme=args.scheme,
                    k=args.k,
                    precision=args.precision,
                    explain=True,
                )
            )
    finally:
        context.close()

    if response.explain is None:
        print(f"no explanation for {response.status}: {response.error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response.explain, indent=2, sort_keys=True, default=repr))
    else:
        print(SolveExplanation(**response.explain).render_text())
    return 0


def _serve(args: argparse.Namespace) -> int:
    import logging
    import signal

    from repro.experiments.config import ExperimentConfig
    from repro.obs.logs import configure_logging
    from repro.service.server import serve

    # Install the structured log handler before anything can print: in
    # --log-format json every stdout line (banner, profiler notices,
    # per-request wide events) must be one valid JSON document.
    configure_logging(args.log_format)
    log = logging.getLogger("repro.serve")

    config = ExperimentConfig(
        num_transactions=args.transactions,
        num_items=args.items,
        seed=args.seed,
        solver_backend=args.backend,
        solve_workers=args.solve_workers,
        solve_fabric=args.fabric,
        l2_cache_path=args.l2_cache,
    )

    # SIGTERM (what `kill` and CI teardown send) must take the same
    # graceful path as Ctrl-C, or the finally blocks below — profiler
    # flush, tracer close — never run.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)

    profiler = None
    if args.profile is not None:
        from repro.obs.profiler import SamplingProfiler

        # thread mode: the request work happens on scheduler worker
        # threads, which the signal engine can never sample.
        profiler = SamplingProfiler(mode="thread").start()
        log.info("profiling to %s (thread sampler)", args.profile)
    try:
        result = serve(
            host=args.host,
            port=args.port,
            config=config,
            schemes=tuple(args.schemes),
            k_values=tuple(args.k),
            workers=args.workers,
            max_queue=args.queue_size,
            default_deadline_ms=args.default_deadline_ms,
            default_precision=args.default_precision,
            allow_cold=args.allow_cold,
            trace_path=args.trace,
            slow_threshold_ms=args.slow_threshold_ms,
            slow_log_dir=args.slow_log,
            ready_file=args.ready_file,
            log_format=args.log_format,
        )
    finally:
        if profiler is not None:
            profiler.stop()
            stacks = profiler.write_folded(args.profile)
            log.info(
                "profile: %s (%d stacks, %d samples)",
                args.profile,
                stacks,
                profiler.samples_taken,
            )
    return int(result) if isinstance(result, int) else 0


#: Every registered subcommand, in help order.  ``perfcheck`` and
#: ``experiments`` own their argv (their own argparse, ``--help``
#: included) and are dispatched before the parser runs; they are still
#: registered below so ``python -m repro --help`` lists the full CLI —
#: tests/test_cli_help.py keeps this set, the help text and the README
#: command table in sync.
SUBCOMMANDS = ("trace", "explain", "serve", "perfcheck", "experiments")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` CLI (all subcommands registered)."""
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    trace = sub.add_parser("trace", help="run a traced demo query, export artifacts")
    trace.add_argument("query", nargs="?", default="Q1", choices=("Q1", "Q2", "Q3"))
    trace.add_argument("--out", default="trace_out", help="artifact directory")
    trace.add_argument("--scheme", default="km", help="anonymization scheme")
    trace.add_argument("--k", type=int, default=2, help="anonymity parameter")
    trace.add_argument(
        "--backend", default="bb", help="solver backend (bb shows B&B search stats)"
    )
    trace.add_argument(
        "--transactions", type=int, default=300, help="demo dataset size"
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=16,
        help="B&B node-sampling stride (1 records every node)",
    )
    explain = sub.add_parser(
        "explain",
        help="EXPLAIN one query: decomposition, per-component provenance, "
        "bound-convergence timeline, and IIS on infeasible databases",
    )
    explain.add_argument("query", nargs="?", default="Q1", choices=("Q1", "Q2", "Q3"))
    explain.add_argument("--scheme", default="km", help="anonymization scheme")
    explain.add_argument("--k", type=int, default=2, help="anonymity parameter")
    explain.add_argument(
        "--precision",
        choices=("fast", "balanced", "tight"),
        default="tight",
        help="answering precision (estimator tiers vs. exact BIP)",
    )
    explain.add_argument(
        "--backend", default="bb", help="solver backend (bb shows B&B search stats)"
    )
    explain.add_argument(
        "--transactions", type=int, default=300, help="demo dataset size"
    )
    explain.add_argument(
        "--sample-every",
        type=int,
        default=8,
        help="B&B node-sampling stride (1 records every node)",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the raw JSON payload"
    )
    explain.add_argument(
        "--infeasible",
        action="store_true",
        help="inject a contradictory constraint pair to demonstrate IIS diagnosis",
    )
    server = sub.add_parser(
        "serve", help="start the HTTP aggregate-query service on a fixture database"
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    server.add_argument(
        "--schemes",
        nargs="+",
        default=["km"],
        help="anonymization schemes to pre-encode (km, k-anonymity, bipartite, coherence)",
    )
    server.add_argument(
        "--k", type=int, nargs="+", default=[2], help="anonymity parameters to pre-encode"
    )
    server.add_argument(
        "--workers", type=int, default=4, help="scheduler worker threads"
    )
    server.add_argument(
        "--queue-size", type=int, default=64, help="admission queue bound (429 when full)"
    )
    server.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to requests that carry none",
    )
    server.add_argument(
        "--default-precision",
        choices=("fast", "balanced", "tight"),
        default="tight",
        help="answering precision for requests that carry none "
        "(estimator tiers vs. exact BIP; see docs/estimators.md)",
    )
    server.add_argument(
        "--allow-cold",
        action="store_true",
        help="build encodings on first request instead of rejecting un-warmed pairs",
    )
    server.add_argument(
        "--transactions", type=int, default=300, help="fixture dataset size"
    )
    server.add_argument("--items", type=int, default=96, help="fixture item count")
    server.add_argument("--seed", type=int, default=3)
    server.add_argument("--backend", default="auto", help="solver backend")
    server.add_argument(
        "--solve-workers",
        type=int,
        default=1,
        help="worker processes of the process fabric",
    )
    server.add_argument(
        "--fabric",
        choices=("inline", "process"),
        default="inline",
        help="executor fabric for solve units (process = forked workers "
        "on real cores; pair with --solve-workers)",
    )
    server.add_argument(
        "--l2-cache",
        default=None,
        metavar="PATH",
        help="SQLite path for the cross-process L2 solve cache "
        "('off' disables it; default: auto temp file for --fabric process)",
    )
    server.add_argument(
        "--trace", default=None, help="stream per-request JSONL spans to this file"
    )
    server.add_argument(
        "--profile",
        nargs="?",
        const="serve-profile.folded",
        default=None,
        metavar="PATH",
        help="run the sampling profiler (thread mode, all worker threads); "
        "write flamegraph-compatible collapsed stacks here on shutdown",
    )
    server.add_argument(
        "--slow-threshold-ms",
        type=float,
        default=None,
        help="capture requests slower than this to the slow-query ring",
    )
    server.add_argument(
        "--slow-log",
        default=None,
        metavar="DIR",
        help="slow-query ring directory (default: slow-queries/)",
    )
    server.add_argument(
        "--ready-file",
        default=None,
        help="write {host, port, url} JSON here once listening (for scripts)",
    )
    server.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="request-log rendering: 'json' emits one JSON object per "
        "line on stdout (wide per-request events included)",
    )
    sub.add_parser(
        "perfcheck",
        help="perf-regression gate against benchmarks/BENCH_perfcheck.json "
        "(own flags: see `python -m repro perfcheck --help`)",
        add_help=False,
    )
    sub.add_parser(
        "experiments",
        help="figure harness, same as `python -m repro.experiments` "
        "(own flags: see `python -m repro experiments --help`)",
        add_help=False,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        return _banner()
    if argv[0] == "perfcheck":
        # perfcheck owns its argv (its own argparse, --help included).
        from repro.obs.perfcheck import main as perfcheck_main

        return perfcheck_main(argv[1:])
    if argv[0] == "experiments":
        # So does the figure harness (also reachable as `-m repro.experiments`).
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _trace(args)
    if args.command == "explain":
        return _explain(args)
    if args.command == "serve":
        return _serve(args)
    return _banner()


if __name__ == "__main__":
    raise SystemExit(main())
