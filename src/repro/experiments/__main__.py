"""CLI: regenerate the paper's figures.

    python -m repro.experiments figure5
    python -m repro.experiments figure6
    python -m repro.experiments figure7
    python -m repro.experiments all

Scale with the ``REPRO_SCALE`` environment variable (default workload is
2000 transactions over 256 items; see repro.experiments.config).

Observability (see docs/observability.md): ``--trace out.jsonl`` streams
a hierarchical span trace of the whole run and, next to it, a
Prometheus-format ``metrics.txt`` and a ``manifest.json`` run manifest
(config, per-phase timings, cache stats, solver node counts).  The
``--schemes/--queries/--k`` filters carve out a tiny run — what the CI
trace smoke job executes::

    python -m repro.experiments figure5 --schemes km --queries Q1 --k 2 \\
        --trace artifacts/trace.jsonl

``--profile out.folded`` additionally samples the run with the
statistical profiler and writes flamegraph-compatible collapsed stacks.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.figure6 import render_figure6, run_figure6
from repro.experiments.figure7 import render_figure7, run_figure7
from repro.experiments.runner import QUERIES, SCHEMES, ExperimentContext

TARGETS = ("figure5", "figure6", "figure7", "utility", "all")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("target", nargs="?", default="all", choices=TARGETS)
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL span trace here and activate tracing for the run",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="Prometheus-text metrics output (default: metrics.txt next to --trace)",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="run-manifest JSON output (default: manifest.json next to --trace)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="sample the run with the statistical profiler and write "
        "flamegraph-compatible collapsed stacks here",
    )
    parser.add_argument(
        "--schemes", help=f"comma list from {{{','.join(SCHEMES)}}} (figures 5/6)"
    )
    parser.add_argument(
        "--queries", help=f"comma list from {{{','.join(QUERIES)}}} (figures 5/6/7)"
    )
    parser.add_argument("--k", help="comma list of anonymity parameters (figure 5)")
    parser.add_argument(
        "--fabric",
        choices=("inline", "process"),
        default="inline",
        help="executor fabric for solve units (process = forked workers)",
    )
    parser.add_argument(
        "--solve-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes of the process fabric",
    )
    return parser.parse_args(argv)


def _run(target: str, context: ExperimentContext, args: argparse.Namespace) -> None:
    schemes = tuple(args.schemes.split(",")) if args.schemes else SCHEMES
    queries = tuple(args.queries.split(",")) if args.queries else QUERIES
    k_values = tuple(int(k) for k in args.k.split(",")) if args.k else None
    if target in ("figure5", "all"):
        print(
            render_figure5(
                run_figure5(context, schemes=schemes, queries=queries, k_values=k_values)
            )
        )
    if target in ("figure6", "all"):
        kwargs = {"schemes": schemes, "queries": queries}
        if k_values:
            kwargs["k"] = k_values[0]
        print(render_figure6(run_figure6(context, **kwargs)))
    if target in ("figure7", "all"):
        kwargs = {"queries": tuple(q for q in queries if q in ("Q2", "Q3")) or ("Q2",)}
        if args.schemes:
            kwargs["scheme"] = schemes[0]
        if k_values:
            kwargs["k"] = k_values[0]
        print(render_figure7(run_figure7(context, **kwargs)))
    if target == "utility":
        from repro.experiments.utility import render_utility, run_utility

        print(render_utility(run_utility(context)))


def main(argv: list[str]) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(message)s", stream=sys.stderr
    )
    args = _parse_args(argv)
    config = ExperimentConfig(
        solve_fabric=args.fabric,
        solve_workers=args.solve_workers,
    )
    context = ExperimentContext(config)
    print(f"# workload: {config.label}")

    profiler = None
    if args.profile:
        from repro.obs.profiler import SamplingProfiler

        # auto mode: single-threaded harness runs use the cheap SIGPROF
        # engine; thread-pool configs fall back to the frame sampler.
        profiler = SamplingProfiler(mode="auto").start()

    def _finish_profile() -> None:
        if profiler is None:
            return
        profiler.stop()
        stacks = profiler.write_folded(args.profile)
        print(
            f"# profile: {args.profile} ({stacks} stacks, "
            f"{profiler.samples_taken} samples)",
            file=sys.stderr,
        )

    if args.trace is None:
        try:
            _run(args.target, context, args)
        finally:
            _finish_profile()
            context.close()
        return 0

    from repro.obs import (
        JsonlSink,
        Tracer,
        activate,
        build_manifest,
        build_metrics,
        global_registry,
        render_registries,
        write_manifest,
    )

    out_dir = os.path.dirname(os.path.abspath(args.trace))
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = args.metrics or os.path.join(out_dir, "metrics.txt")
    manifest_path = args.manifest or os.path.join(out_dir, "manifest.json")

    try:
        with JsonlSink(args.trace) as sink:
            tracer = Tracer([sink])
            with activate(tracer):
                _run(args.target, context, args)
    finally:
        _finish_profile()
    with open(metrics_path, "w", encoding="utf-8") as handle:
        handle.write(render_registries((build_metrics(tracer), global_registry())))
    manifest = build_manifest(
        config=config,
        tracer=tracer,
        sessions=context.cache_stats(),
        extra={
            "target": args.target,
            "artifacts": {"trace": args.trace, "metrics": metrics_path},
        },
    )
    write_manifest(manifest_path, manifest)
    print(
        f"# trace: {args.trace} ({sink.written} spans); metrics: {metrics_path}; "
        f"manifest: {manifest_path}",
        file=sys.stderr,
    )
    context.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
