"""Noise-aware performance-regression gate (``python -m repro perfcheck``).

Micro-benchmark CI gates fail in two boring ways: they flake (one noisy
rep on a shared runner fails the build) or they rot (thresholds so loose
they never fire).  This gate spends its effort on noise control instead
of raw precision:

* **Interleaved reps** — scenarios run round-robin (A B C A B C ...), not
  back-to-back, so thermal drift and allocator growth spread evenly
  across scenarios instead of biasing whichever ran last.  Every scenario
  gets one untimed warmup rep first.
* **Median + MAD** — the gate compares medians and sizes its tolerance by
  the median absolute deviation, both robust to the one-slow-rep outliers
  that wreck mean/stddev gates.
* **CPU calibration** — a fixed pure-Python spin is timed alongside the
  scenarios; the baseline's spin time is stored, and at check time every
  baseline median is rescaled by ``current_spin / baseline_spin``.  A
  slower CI runner raises the bar instead of failing the build.

The decision rule per scenario::

    limit  = baseline_median * speed_ratio * (1 + rel_tol)
             + mad_multiplier * max(baseline_mad * speed_ratio, current_mad)
    regression  iff  current_median > limit

Baselines live in ``benchmarks/BENCH_perfcheck.json`` (committed);
refresh with ``python -m repro perfcheck --update`` after an intentional
performance change.  ``--inject-slowdown 2.0`` busy-waits each rep to
double its wall time — the self-test that the gate actually fires.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "Scenario",
    "calibrate",
    "check",
    "decompose_scenarios",
    "default_baseline_path",
    "default_scenarios",
    "fabric_scenarios",
    "kernels_scenarios",
    "main",
    "measure",
    "tiers_scenarios",
]

_BASELINE_NAME = "BENCH_perfcheck.json"


def default_baseline_path() -> Optional[str]:
    """The nearest ``benchmarks/BENCH_perfcheck.json``, or ``None``.

    Searches every ancestor of the working directory first (works from
    any subdirectory of a checkout), then every ancestor of this file
    (the src-layout checkout, regardless of CWD).  If no baseline file
    exists yet, the first *existing* ``benchmarks/`` directory found the
    same way is where ``--update`` will create one.  A pip-installed
    package sitting outside any checkout has neither — callers must
    pass ``--baseline`` explicitly.
    """
    candidates: List[str] = []
    for start in (os.getcwd(), os.path.dirname(os.path.abspath(__file__))):
        current = start
        while True:
            bench_dir = os.path.join(current, "benchmarks")
            if bench_dir not in candidates:
                candidates.append(bench_dir)
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    for bench_dir in candidates:
        if os.path.isfile(os.path.join(bench_dir, _BASELINE_NAME)):
            return os.path.join(bench_dir, _BASELINE_NAME)
    for bench_dir in candidates:
        if os.path.isdir(bench_dir):
            return os.path.join(bench_dir, _BASELINE_NAME)
    return None

#: Iterations of the calibration spin (~tens of ms of pure Python).
_CALIBRATION_ITERS = 400_000


@dataclass
class Scenario:
    """One gated workload: a setup thunk and a timed rep."""

    name: str
    #: Built once, before the warmup rep; its return value is passed to
    #: every ``run`` call.  Setup cost is *not* gated.
    setup: Callable[[], object]
    #: One timed repetition.
    run: Callable[[object], None]
    state: object = field(default=None, repr=False)


def calibrate(iters: Optional[int] = None) -> float:
    """Seconds for a fixed pure-Python spin — the machine-speed yardstick."""
    iters = _CALIBRATION_ITERS if iters is None else iters
    acc = 0
    t0 = time.perf_counter()
    for i in range(iters):
        acc += i ^ (acc >> 3)
    elapsed = time.perf_counter() - t0
    # acc is deliberately consumed so the loop cannot be optimized away.
    return elapsed + (acc & 0) * 1e-12


def _mad(samples: List[float], center: float) -> float:
    return statistics.median(abs(s - center) for s in samples)


def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def default_scenarios(quick: bool = False) -> List[Scenario]:
    """The gated workloads, each one layer of the stack.

    Imports are local so ``perfcheck --help`` stays instant and the module
    is importable without the heavy engine modules.
    """
    from repro.engine.session import SolveSession
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries import answer_licm
    from repro.queries.licm_eval import evaluate_licm

    tx = 200 if quick else 400
    items = 48 if quick else 96

    def make_context() -> ExperimentContext:
        config = ExperimentConfig(
            num_transactions=tx, num_items=items, mc_samples=8, seed=11
        )
        context = ExperimentContext(config)
        context.encoding("km", 2)  # encode outside the timed region
        return context

    # One context shared by the solve scenarios (built in the first setup
    # that needs it); the encode scenario always builds its own.
    shared: Dict[str, ExperimentContext] = {}

    def shared_context() -> ExperimentContext:
        if "ctx" not in shared:
            shared["ctx"] = make_context()
        return shared["ctx"]

    def setup_encode():
        context = shared_context()
        return context

    def run_encode(context) -> None:
        from repro.anonymize import encode_generalized, km_anonymize

        anonymized = km_anonymize(
            context.dataset, context.hierarchy, 2, context.config.km_m
        )
        encode_generalized(anonymized)

    def setup_solve_cold():
        context = shared_context()
        encoded = context.encoding("km", 2).encoded
        plan = context.plan("Q1", encoded)
        return (encoded, plan)

    def run_solve_cold(state) -> None:
        encoded, plan = state
        session = SolveSession(encoded.model, cache_size=0)
        with encoded.model.scoped():
            answer_licm(encoded, plan, session=session)

    def setup_solve_warm():
        context = shared_context()
        encoded = context.encoding("km", 2).encoded
        plan = context.plan("Q1", encoded)
        session = context.session("km", 2)
        with encoded.model.scoped():
            answer_licm(encoded, plan, session=session)  # populate the cache
        return (encoded, plan, session)

    def run_solve_warm(state) -> None:
        encoded, plan, session = state
        with encoded.model.scoped():
            answer_licm(encoded, plan, session=session)

    def setup_licm_eval():
        context = shared_context()
        encoded = context.encoding("km", 2).encoded
        plan = context.plan("Q1", encoded)
        return (encoded, plan)

    def run_licm_eval(state) -> None:
        encoded, plan = state
        with encoded.model.scoped():
            evaluate_licm(plan, encoded.relations)

    scenarios = [
        Scenario("encode_km", setup_encode, run_encode),
        Scenario("licm_eval_q1", setup_licm_eval, run_licm_eval),
        Scenario("solve_cold_q1", setup_solve_cold, run_solve_cold),
        Scenario("solve_warm_q1", setup_solve_warm, run_solve_warm),
    ]
    if quick:
        # Drop the slowest scenario; the cold solve dominates quick runs.
        scenarios = [s for s in scenarios if s.name != "solve_cold_q1"]
    return scenarios


def _q1_workload(scheme: str, tx: int, items: int, seed: int) -> Callable[[], tuple]:
    """A loader of ``(encoded, objective)``: Q1 evaluated on a fresh
    ``scheme`` encoding, built on the first call (in a scenario's setup,
    outside the timed region) and shared after."""
    shared: list = []

    def workload() -> tuple:
        if not shared:
            from repro.experiments.config import ExperimentConfig
            from repro.experiments.runner import ExperimentContext
            from repro.queries.licm_eval import evaluate_licm

            context = ExperimentContext(
                ExperimentConfig(num_transactions=tx, num_items=items, mc_samples=8, seed=seed)
            )
            encoded = context.encoding(scheme, 2).encoded
            shared.append((encoded, evaluate_licm(context.plan("Q1", encoded), encoded.relations)))
        return shared[0]

    return workload


def decompose_scenarios(quick: bool = False) -> List[Scenario]:
    """The ``decompose``-mode workloads: perturbed re-queries on the
    k-anonymity encoding, whose group constraints make the BIP split into
    ~one block per group (see docs/solver.md).

    Each rep re-queries with a trivially-true cardinality constraint on a
    different variable: the decomposed arm re-solves only the touched
    component (warm per-component cache), the monolithic arm prunes the
    same problem, builds its whole BIP (``prune`` + ``from_licm``) and
    solves it through the solver facade, both senses, with no cache.
    Gating both keeps the decomposition win from regressing against the
    whole-BIP reference.
    """
    from repro.core.constraints import LinearConstraint
    from repro.core.pruning import prune
    from repro.engine.session import SolveSession
    from repro.solver.interface import solve
    from repro.solver.model import from_licm

    workload = _q1_workload("k-anonymity", 300 if quick else 600, 64 if quick else 128, 3)

    def setup():
        encoded, objective = workload()
        session = SolveSession(encoded.model)
        session.bounds(objective)  # fill the cache outside the timed region
        return {
            "session": session,
            "objective": objective,
            "variables": sorted(objective.coeffs),
            "rep": 0,
        }

    def perturbation(state) -> list:
        # A different perturbation target every rep: the exact query is
        # never in the LRU, only (for the decomposed arm) its components.
        var = state["variables"][state["rep"] % len(state["variables"])]
        state["rep"] += 1
        return [LinearConstraint([(1, var)], "<=", 1)]

    def run_requery(state) -> None:
        state["session"].bounds(
            state["objective"], extra_constraints=perturbation(state)
        )

    def run_whole_bip(state) -> None:
        session, objective, extra = state["session"], state["objective"], perturbation(state)
        seeds = set(objective.coeffs) | {i for c in extra for i in c.variables}
        model = session.model
        pruned = prune(model.constraints, seeds, session.prune_method, model=model)
        problem, _ = from_licm(objective, pruned.constraints + extra)
        for sense in ("min", "max"):
            solve(problem, sense)

    return [
        Scenario("requery_decomposed", setup, run_requery),
        Scenario("requery_monolithic", setup, run_whole_bip),
    ]


def fabric_scenarios(quick: bool = False) -> List[Scenario]:
    """The ``fabric``-mode workloads: one cold solve per rep through each
    executor fabric, plus the L2 warm-get path.

    Cache is disabled (``cache_size=0``) so every rep pays the real
    prepare + solve; the three solve scenarios differ *only* in the
    fabric, so their relative medians measure pure dispatch overhead
    (inline) vs thread scheduling vs fork+pickle+IPC.  The L2 scenario
    gates the SQLite read path a process-fabric worker takes before
    every solve.
    """
    import tempfile

    from repro.engine.cache import CachedSolve
    from repro.engine.fabric import make_fabric
    from repro.engine.l2cache import L2SolveCache
    from repro.engine.session import SolveSession

    workload = _q1_workload("km", 200 if quick else 400, 48 if quick else 96, 11)

    def make_setup(kind: str, workers: int):
        def setup():
            encoded, objective = workload()
            session = SolveSession(
                encoded.model, cache_size=0, fabric=make_fabric(kind, workers)
            )
            return {"session": session, "objective": objective}

        return setup

    def run_solve(state) -> None:
        state["session"].bounds(state["objective"])

    def setup_l2():
        path = os.path.join(tempfile.mkdtemp(prefix="perfcheck_l2_"), "l2.sqlite")
        cache = L2SolveCache(path)
        entry = CachedSolve(
            status="optimal",
            objective=42,
            x_canonical=tuple(i % 2 for i in range(64)),
            bound=42.0,
            nodes=9,
            backend="bb",
        )
        for i in range(32):
            cache.put(f"fingerprint-{i}", "max", entry)
        return {"cache": cache}

    def run_l2_warm_get(state) -> None:
        cache = state["cache"]
        for _ in range(8):
            for i in range(32):
                assert cache.get(f"fingerprint-{i}", "max") is not None

    return [
        Scenario("solve_inline", make_setup("inline", 1), run_solve),
        Scenario("solve_thread", make_setup("thread", 2), run_solve),
        Scenario("solve_process", make_setup("process", 2), run_solve),
        Scenario("l2_warm_get", setup_l2, run_l2_warm_get),
    ]


def kernels_scenarios(quick: bool = False) -> List[Scenario]:
    """The ``kernels``-mode workloads: the vectorized B&B inner loops
    (see docs/performance.md).

    ``solve_kernels_auto`` is the tentpole path — a fully cold decomposed
    k-anonymity solve with the numpy kernels and node-0 seeding, where
    nearly every component closes at the root with zero LP calls.
    ``kernel_microbench`` times compile → propagate → greedy seed →
    surrogate bound on one synthetic BIP, isolating the kernel module
    from the engine around it.
    """
    import random

    from repro.engine.session import SolveSession
    from repro.solver.result import SolverOptions

    workload = _q1_workload("k-anonymity", 300 if quick else 600, 64 if quick else 128, 3)

    def setup_cold_solve():
        encoded, objective = workload()
        return {"encoded": encoded, "objective": objective}

    def run_cold_solve(state) -> None:
        # A fresh session per rep: every rep pays the real cold
        # prepare + solve, exactly the path the kernels accelerate.
        session = SolveSession(
            state["encoded"].model,
            cache_size=0,
            options=SolverOptions(),
        )
        session.bounds(state["objective"])

    def setup_micro():
        from repro.solver import kernels as kernels_module
        from repro.solver.model import BIPConstraint, BIPProblem

        rng = random.Random(7)
        num_vars = 400 if quick else 900
        constraints = []
        for _ in range(num_vars // 2):
            arity = rng.randint(2, 6)
            idxs = rng.sample(range(num_vars), arity)
            terms = tuple((rng.choice((1, 1, 1, -1)), i) for i in idxs)
            positive = sum(c for c, _ in terms if c > 0)
            constraints.append(
                BIPConstraint(terms, "<=", rng.randint(1, max(1, positive)))
            )
        problem = BIPProblem(
            num_vars=num_vars,
            constraints=constraints,
            objective={i: rng.randint(-3, 3) for i in range(num_vars)},
        )
        return {"kernels": kernels_module, "problem": problem}

    def run_micro(state) -> None:
        kernels_module = state["kernels"]
        compiled = kernels_module.compile_problem(state["problem"])
        domains = compiled.propagate(compiled.root_domains())
        if domains is not None:
            compiled.greedy_seed(domains)
            compiled.upper_bound(domains)

    return [
        Scenario("solve_kernels_auto", setup_cold_solve, run_cold_solve),
        Scenario("kernel_microbench", setup_micro, run_micro),
    ]


def tiers_scenarios(quick: bool = False) -> List[Scenario]:
    """The ``tiers``-mode workloads: the same prepared k-anonymity Q1
    problem answered at each precision level (see docs/estimators.md).

    The session cache is disabled, so the ``tight`` arm pays the full
    exact BIP solve every rep while the estimator arms pay only the tier
    cascade — their relative medians *are* the fast-vs-tight win the
    tiered answerer exists for, and gating all three keeps both the
    estimator overhead and the exact path from regressing.
    """
    from repro.engine.session import SolveSession
    from repro.estimator import TieredAnswerer

    workload = _q1_workload("km", 300 if quick else 600, 64 if quick else 128, 3)

    def make_setup(precision: str):
        def setup():
            encoded, objective = workload()
            session = SolveSession(encoded.model, cache_size=0)
            prepared = session.prepare(objective)
            return {
                "answerer": TieredAnswerer(),
                "session": session,
                "prepared": prepared,
                "precision": precision,
            }

        return setup

    def run_answer(state) -> None:
        # Every rep shares one prepared problem; empty its verdict store so
        # the estimator arms time the cascade, not a lookup.
        state["prepared"].verdicts.clear()
        state["answerer"].answer(
            state["session"], state["prepared"], state["precision"]
        )

    return [
        Scenario("answer_fast", make_setup("fast"), run_answer),
        Scenario("answer_balanced", make_setup("balanced"), run_answer),
        Scenario("answer_tight", make_setup("tight"), run_answer),
    ]


def measure(
    scenarios: List[Scenario],
    reps: int = 7,
    inject_slowdown: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run every scenario ``reps`` times, round-robin interleaved.

    Returns ``{"calibration_s": ..., "scenarios": {name: {"samples": [...],
    "median_s": ..., "mad_s": ...}}}``.  ``inject_slowdown`` > 1 busy-waits
    each rep out to ``factor ×`` its measured wall time (the gate's
    self-test knob).
    """
    say = progress or (lambda _msg: None)
    for scenario in scenarios:
        say(f"setup {scenario.name}")
        scenario.state = scenario.setup()
        scenario.run(scenario.state)  # warmup (untimed)
    samples: Dict[str, List[float]] = {s.name: [] for s in scenarios}
    for rep in range(reps):
        for scenario in scenarios:
            t0 = time.perf_counter()
            scenario.run(scenario.state)
            elapsed = time.perf_counter() - t0
            if inject_slowdown > 1.0:
                _busy_wait(elapsed * (inject_slowdown - 1.0))
                elapsed *= inject_slowdown
            samples[scenario.name].append(elapsed)
        say(f"rep {rep + 1}/{reps} done")
    calibration = statistics.median(calibrate() for _ in range(3))
    out = {"calibration_s": calibration, "scenarios": {}}
    for name, values in samples.items():
        median = statistics.median(values)
        out["scenarios"][name] = {
            "samples": values,
            "median_s": median,
            "mad_s": _mad(values, median),
        }
    return out


def check(
    current: dict,
    baseline: dict,
    rel_tol: float = 0.35,
    mad_multiplier: float = 4.0,
) -> dict:
    """Compare a :func:`measure` result against a stored baseline.

    Returns a report dict; ``report["ok"]`` is the gate verdict.  Scenarios
    present on only one side are reported but never fail the gate (a new
    scenario needs ``--update`` before it can regress).
    """
    base_cal = float(baseline.get("calibration_s") or 0.0)
    cur_cal = float(current.get("calibration_s") or 0.0)
    speed_ratio = (cur_cal / base_cal) if base_cal > 0 and cur_cal > 0 else 1.0
    report = {
        "ok": True,
        "speed_ratio": speed_ratio,
        "rel_tol": rel_tol,
        "mad_multiplier": mad_multiplier,
        "scenarios": {},
        "missing_from_baseline": [],
        "missing_from_current": [],
    }
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in sorted(set(base_scenarios) | set(cur_scenarios)):
        if name not in base_scenarios:
            report["missing_from_baseline"].append(name)
            continue
        if name not in cur_scenarios:
            report["missing_from_current"].append(name)
            continue
        base = base_scenarios[name]
        cur = cur_scenarios[name]
        scaled_median = base["median_s"] * speed_ratio
        mad_slack = mad_multiplier * max(base["mad_s"] * speed_ratio, cur["mad_s"])
        limit = scaled_median * (1.0 + rel_tol) + mad_slack
        regressed = cur["median_s"] > limit
        report["scenarios"][name] = {
            "baseline_median_s": base["median_s"],
            "baseline_scaled_s": scaled_median,
            "current_median_s": cur["median_s"],
            "current_mad_s": cur["mad_s"],
            "limit_s": limit,
            "ratio": (cur["median_s"] / scaled_median) if scaled_median > 0 else 0.0,
            "regressed": regressed,
        }
        if regressed:
            report["ok"] = False
    return report


def _format_report(report: dict) -> str:
    lines = [
        f"perfcheck: speed_ratio={report['speed_ratio']:.3f} "
        f"rel_tol={report['rel_tol']:.0%} mad_mult={report['mad_multiplier']:g}"
    ]
    for name, row in report["scenarios"].items():
        verdict = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {name:<16} {row['current_median_s'] * 1e3:8.1f} ms "
            f"vs limit {row['limit_s'] * 1e3:8.1f} ms "
            f"(baseline {row['baseline_scaled_s'] * 1e3:.1f} ms scaled, "
            f"x{row['ratio']:.2f})  {verdict}"
        )
    for name in report["missing_from_baseline"]:
        lines.append(f"  {name:<16} NEW — not in baseline (run --update to gate it)")
    for name in report["missing_from_current"]:
        lines.append(f"  {name:<16} SKIPPED — in baseline but not measured")
    lines.append("perfcheck: PASS" if report["ok"] else "perfcheck: FAIL")
    return "\n".join(lines)


def _format_baselines(
    document: dict,
    path: str,
    rel_tol: float = 0.35,
    mad_multiplier: float = 4.0,
) -> str:
    """One table over every committed baseline mode (``--report``).

    The limit column is what :func:`check` would enforce on a machine
    exactly as fast as the baseline one (``speed_ratio = 1``); a slower
    runner scales it up at check time.
    """
    lines = [
        f"perfcheck baselines: {path}",
        f"(limits at speed_ratio=1, rel_tol={rel_tol:.0%}, "
        f"mad_mult={mad_multiplier:g})",
        "",
        f"  {'mode':<10} {'metric':<20} {'reps':>4} "
        f"{'baseline':>10} {'mad':>9} {'limit':>10}",
    ]
    modes = document.get("modes", {})
    if not modes:
        lines.append("  (no baselines committed yet — run --update)")
        return "\n".join(lines)
    for mode in sorted(modes):
        entry = modes[mode]
        reps = entry.get("reps", "?")
        for name in sorted(entry.get("scenarios", {})):
            row = entry["scenarios"][name]
            median = row["median_s"]
            mad = row["mad_s"]
            limit = median * (1.0 + rel_tol) + mad_multiplier * mad
            lines.append(
                f"  {mode:<10} {name:<20} {reps:>4} "
                f"{median * 1e3:>8.1f}ms {mad * 1e3:>7.2f}ms "
                f"{limit * 1e3:>8.1f}ms"
            )
        cal = entry.get("calibration_s")
        if cal is not None:
            lines.append(
                f"  {mode:<10} {'(cpu calibration)':<20} {'':>4} "
                f"{cal * 1e3:>8.1f}ms"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perfcheck",
        description="noise-aware perf-regression gate (median + MAD, "
        "CPU-calibrated against the committed baseline)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: the nearest "
        "benchmarks/BENCH_perfcheck.json above the working directory)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured result as the new baseline and exit 0",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller dataset, fewer reps, no cold-solve scenario (CI mode)",
    )
    parser.add_argument(
        "--decompose",
        action="store_true",
        help="gate the block-separable decomposition scenarios instead "
        "(perturbed re-queries, decomposed vs monolithic; mode 'decompose')",
    )
    parser.add_argument(
        "--fabric",
        action="store_true",
        help="gate the executor-fabric scenarios instead (cold solves "
        "through inline/thread/process fabrics + L2 warm gets; mode 'fabric')",
    )
    parser.add_argument(
        "--tiers",
        action="store_true",
        help="gate the tiered-answerer scenarios instead (the same prepared "
        "problem at precision fast/balanced/tight; mode 'tiers')",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="gate the vectorized-kernel scenarios instead (a cold decomposed "
        "solve + a kernel microbench; mode 'kernels')",
    )
    parser.add_argument("--reps", type=int, default=None, help="timed reps per scenario")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.35,
        help="relative tolerance over the scaled baseline median",
    )
    parser.add_argument(
        "--mad-mult",
        type=float,
        default=4.0,
        help="MAD multiplier added to the limit",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="busy-wait each rep to FACTOR x its wall time (gate self-test)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the report as JSON"
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="render every committed baseline (all modes) as one table "
        "and exit — no measuring",
    )
    args = parser.parse_args(argv)
    mode_flags = (
        ("--decompose " if args.decompose else "")
        + ("--fabric " if args.fabric else "")
        + ("--tiers " if args.tiers else "")
        + ("--kernels " if args.kernels else "")
        + ("--quick " if args.quick else "")
    )

    # Resolve the baseline *before* spending minutes measuring, and
    # distinguish "not a repo checkout" from "baseline missing".
    baseline_path = args.baseline or default_baseline_path()
    if baseline_path is None:
        print(
            "perfcheck: no benchmarks/ directory found above "
            f"{os.getcwd()} or the installed package — this is not a "
            "repo checkout; pass --baseline PATH",
            file=sys.stderr,
        )
        return 2
    if args.report:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            print(
                f"perfcheck: no baseline at {baseline_path} — run --update first",
                file=sys.stderr,
            )
            return 2
        print(
            _format_baselines(
                document,
                baseline_path,
                rel_tol=args.rel_tol,
                mad_multiplier=args.mad_mult,
            )
        )
        return 0
    if not args.update and not os.path.isfile(baseline_path):
        print(
            f"perfcheck: no baseline at {baseline_path} — run "
            f"`perfcheck {mode_flags}--update` first",
            file=sys.stderr,
        )
        return 2

    reps = args.reps if args.reps is not None else (5 if args.quick else 7)
    if sum((args.decompose, args.fabric, args.tiers, args.kernels)) > 1:
        print(
            "perfcheck: --decompose, --fabric, --tiers and --kernels are exclusive",
            file=sys.stderr,
        )
        return 2
    if args.kernels:
        scenarios = kernels_scenarios(quick=args.quick)
        mode = "kernels"
    elif args.tiers:
        scenarios = tiers_scenarios(quick=args.quick)
        mode = "tiers"
    elif args.fabric:
        scenarios = fabric_scenarios(quick=args.quick)
        mode = "fabric"
    elif args.decompose:
        scenarios = decompose_scenarios(quick=args.quick)
        mode = "decompose"
    else:
        scenarios = default_scenarios(quick=args.quick)
        mode = "quick" if args.quick else "full"
    result = measure(
        scenarios,
        reps=reps,
        inject_slowdown=args.inject_slowdown,
        progress=lambda msg: print(f"perfcheck: {msg}", file=sys.stderr),
    )
    result["reps"] = reps

    if args.update:
        # The baseline file holds one entry per mode — updating the quick
        # (CI) baseline never clobbers the full (local) one, and vice versa.
        document = {}
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            pass
        document.setdefault("modes", {})[mode] = result
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"perfcheck: {mode} baseline written to {baseline_path}")
        return 0

    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError:
        print(
            f"perfcheck: no baseline at {baseline_path} — run with --update first",
            file=sys.stderr,
        )
        return 2
    baseline = document.get("modes", {}).get(mode)
    if baseline is None:
        print(
            f"perfcheck: baseline {baseline_path} has no {mode!r} entry — "
            f"run `perfcheck {mode_flags}--update` first",
            file=sys.stderr,
        )
        return 2

    report = check(
        result, baseline, rel_tol=args.rel_tol, mad_multiplier=args.mad_mult
    )
    report["measured"] = result
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(_format_report(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
