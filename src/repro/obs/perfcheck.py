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
  that wreck mean/stddev gates.  The MAD enters relative to its median:
  a slowdown stretches the current MAD with the median, and an absolute
  MAD slack would grow with the very regression it should catch.
* **CPU calibration** — a fixed pure-Python spin runs once per rep,
  inside the round-robin, and its median is stored with the baseline; at
  check time every baseline median is rescaled by
  ``current_spin / baseline_spin``.  A slower CI runner raises the bar
  instead of failing the build.

The decision rule per scenario::

    scaled = baseline_median * speed_ratio
    limit  = scaled * (1 + REL_TOL + MAD_MULTIPLIER * max(
                 baseline_mad / baseline_median, current_mad / current_median))
    regression  iff  current_median > limit

One run measures every scenario of :func:`scenarios` against one flat
baseline, ``benchmarks/BENCH_perfcheck.json`` (committed); refresh it
with ``python -m repro perfcheck --update`` after an intentional
performance change.  ``--inject-slowdown 3`` busy-waits each rep to
triple its wall time — the self-test that the gate actually fires.
"""

from __future__ import annotations

import argparse
import gc
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
    "default_baseline_path",
    "main",
    "measure",
    "scenarios",
]

_BASELINE_NAME = "BENCH_perfcheck.json"

#: Relative tolerance over the speed-scaled baseline median.
REL_TOL = 0.35
#: MAD multiplier added to the limit.
MAD_MULTIPLIER = 4.0
#: Timed reps per scenario.
REPS = 15


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

#: Iterations of the calibration spin (~0.1 s of pure Python).
_CALIBRATION_ITERS = 1_000_000


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
        acc = (acc + (i ^ (acc >> 3))) & 0xFFFFFFFF
    elapsed = time.perf_counter() - t0
    # acc is deliberately consumed so the loop cannot be optimized away.
    return elapsed + (acc & 0) * 1e-12


def _mad(samples: List[float], center: float) -> float:
    return statistics.median(abs(s - center) for s in samples)


def _relative_mad(row: dict) -> float:
    return row["mad_s"] / row["median_s"] if row["median_s"] > 0 else 0.0


def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def scenarios() -> List[Scenario]:
    """The gated workloads, one list, roughly in the order of the paper's
    Figure 6 timing layers: L-model (``encode_km``), L-query
    (``licm_eval_q1``), then L-solve through each engine path (warm cache,
    decomposition, fabrics, kernels, precision tiers).

    Building the list encodes nothing — datasets are built in the
    scenarios' setups, so the names can be listed for free — and every
    Q1 workload is encoded once per run and shared by the scenarios that
    use it.  Imports are local so ``perfcheck --help`` stays instant.
    """
    loaded: Dict[tuple, tuple] = {}

    def q1(scheme: str, tx: int, items: int, seed: int) -> tuple:
        """``(encoded, objective)``: Q1 evaluated on a fresh ``scheme``
        encoding, built at the first setup that needs it."""
        key = (scheme, tx, items, seed)
        if key not in loaded:
            from repro.experiments.config import ExperimentConfig
            from repro.experiments.runner import ExperimentContext
            from repro.queries.licm_eval import evaluate_licm

            context = ExperimentContext(
                ExperimentConfig(num_transactions=tx, num_items=items, mc_samples=8, seed=seed)
            )
            encoded = context.encoding(scheme, 2).encoded
            loaded[key] = (encoded, evaluate_licm(context.plan("Q1", encoded), encoded.relations))
        return loaded[key]

    return (
        _pipeline_scenarios()
        + _decompose_scenarios(lambda: q1("k-anonymity", 300, 64, 3))
        + _fabric_scenarios(lambda: q1("km", 200, 48, 11))
        + _kernels_scenarios(lambda: q1("k-anonymity", 300, 64, 3))
        + _tiers_scenarios(lambda: q1("km", 300, 64, 3))
    )


def _pipeline_scenarios() -> List[Scenario]:
    """Encode, LICM evaluation and a warm-cache solve of Q1 on one km
    context of its own (encoded outside the timed region; a context
    shared with an unscoped Q1 evaluation would prune a larger problem)."""
    from repro.anonymize import encode_generalized, km_anonymize
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries import answer_licm
    from repro.queries.licm_eval import evaluate_licm

    shared: list = []

    def context() -> ExperimentContext:
        if not shared:
            built = ExperimentContext(
                ExperimentConfig(num_transactions=200, num_items=48, mc_samples=8, seed=11)
            )
            built.encoding("km", 2)
            shared.append(built)
        return shared[0]

    def run_encode(context) -> None:
        anonymized = km_anonymize(
            context.dataset, context.hierarchy, 2, context.config.km_m
        )
        encode_generalized(anonymized)

    def setup_q1():
        encoded = context().encoding("km", 2).encoded
        return (encoded, context().plan("Q1", encoded))

    def run_licm_eval(state) -> None:
        encoded, plan = state
        with encoded.model.scoped():
            evaluate_licm(plan, encoded.relations)

    def setup_solve_warm():
        encoded, plan = setup_q1()
        session = context().session("km", 2)
        with encoded.model.scoped():
            answer_licm(encoded, plan, session=session)  # populate the cache
        return (encoded, plan, session)

    def run_solve_warm(state) -> None:
        encoded, plan, session = state
        with encoded.model.scoped():
            answer_licm(encoded, plan, session=session)

    return [
        Scenario("encode_km", context, run_encode),
        Scenario("licm_eval_q1", setup_q1, run_licm_eval),
        Scenario("solve_warm_q1", setup_solve_warm, run_solve_warm),
    ]


def _decompose_scenarios(workload: Callable[[], tuple]) -> List[Scenario]:
    """Perturbed re-queries on the k-anonymity encoding, whose group
    constraints make the BIP split into ~one block per group (see
    docs/solver.md).

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


def _fabric_scenarios(workload: Callable[[], tuple]) -> List[Scenario]:
    """One cold solve per rep through each executor fabric, plus the L2
    warm-get path.

    Cache is disabled (``cache_size=0``) so every rep pays the real
    prepare + solve; the two solve scenarios differ *only* in the
    fabric, so their relative medians measure pure dispatch overhead
    (inline) vs fork+pickle+IPC.  The L2 scenario
    gates the SQLite read path a process-fabric worker takes before
    every solve.
    """
    import tempfile

    from repro.engine.cache import CachedSolve
    from repro.engine.fabric import make_fabric
    from repro.engine.l2cache import L2SolveCache
    from repro.engine.session import SolveSession

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
        Scenario("solve_process", make_setup("process", 2), run_solve),
        Scenario("l2_warm_get", setup_l2, run_l2_warm_get),
    ]


def _kernels_scenarios(workload: Callable[[], tuple]) -> List[Scenario]:
    """The vectorized B&B inner loops (see docs/performance.md).

    ``solve_kernels_auto`` is a fully cold decomposed k-anonymity solve
    with the numpy kernels and node-0 seeding, where nearly every
    component closes at the root with zero LP calls.
    ``kernel_microbench`` times compile → propagate → greedy seed →
    surrogate bound on one synthetic BIP, isolating the kernel module
    from the engine around it.
    """
    import random

    from repro.engine.session import SolveSession
    from repro.solver.result import SolverOptions

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
        num_vars = 400
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


def _tiers_scenarios(workload: Callable[[], tuple]) -> List[Scenario]:
    """The same prepared km Q1 problem answered at each precision level
    (see docs/estimators.md).

    The session cache is disabled, so the ``tight`` arm pays the full
    exact BIP solve every rep while the estimator arms pay only the tier
    cascade; gating all three keeps both the estimator overhead and the
    exact path from regressing.
    """
    from repro.engine.session import SolveSession
    from repro.estimator import TieredAnswerer

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
    reps: int = REPS,
    inject_slowdown: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run every scenario ``reps`` times, round-robin interleaved, with
    one calibration spin closing each round.

    Returns ``{"calibration_s": ..., "scenarios": {name: {"samples": [...],
    "median_s": ..., "mad_s": ...}}}``; ``calibration_s`` is the median
    spin.  ``inject_slowdown`` > 1 busy-waits each scenario rep out to
    ``factor ×`` its measured wall time (the gate's self-test knob).
    """
    say = progress or (lambda _msg: None)
    for scenario in scenarios:
        say(f"setup {scenario.name}")
        scenario.state = scenario.setup()
        scenario.run(scenario.state)  # warmup (untimed)
    # Freeze the setup heap, so a collection inside one scenario's rep
    # never scans every other scenario's data, and start each rep from an
    # empty young generation, so its collections fall at the same points.
    gc.collect()
    gc.freeze()
    samples: Dict[str, List[float]] = {s.name: [] for s in scenarios}
    spins: List[float] = []
    try:
        for rep in range(reps):
            for scenario in scenarios:
                gc.collect()
                t0 = time.perf_counter()
                scenario.run(scenario.state)
                elapsed = time.perf_counter() - t0
                if inject_slowdown > 1.0:
                    _busy_wait(elapsed * (inject_slowdown - 1.0))
                    elapsed *= inject_slowdown
                samples[scenario.name].append(elapsed)
            spins.append(calibrate())
            say(f"rep {rep + 1}/{reps} done")
    finally:
        gc.unfreeze()
    out = {"calibration_s": statistics.median(spins), "scenarios": {}}
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
    rel_tol: float = REL_TOL,
    mad_multiplier: float = MAD_MULTIPLIER,
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
        noise = max(_relative_mad(base), _relative_mad(cur))
        limit = scaled_median * (1.0 + rel_tol + mad_multiplier * noise)
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
            f"  {name:<18} {row['current_median_s'] * 1e3:8.1f} ms "
            f"vs limit {row['limit_s'] * 1e3:8.1f} ms "
            f"(baseline {row['baseline_scaled_s'] * 1e3:.1f} ms scaled, "
            f"x{row['ratio']:.2f})  {verdict}"
        )
    for name in report["missing_from_baseline"]:
        lines.append(f"  {name:<18} NEW — not in baseline (run --update to gate it)")
    for name in report["missing_from_current"]:
        lines.append(f"  {name:<18} SKIPPED — in baseline but not measured")
    lines.append("perfcheck: PASS" if report["ok"] else "perfcheck: FAIL")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perfcheck",
        description="noise-aware perf-regression gate: every scenario, one "
        "run, median + MAD, CPU-calibrated against the committed baseline",
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
        "--reps", type=int, default=REPS, help=f"timed reps per scenario (default {REPS})"
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
    args = parser.parse_args(argv)

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
    baseline: dict = {}
    if not args.update:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError):
            pass
        if "scenarios" not in baseline:
            print(
                f"perfcheck: no baseline at {baseline_path} — run "
                "`perfcheck --update` first",
                file=sys.stderr,
            )
            return 2

    result = measure(
        scenarios(),
        reps=args.reps,
        inject_slowdown=args.inject_slowdown,
        progress=lambda msg: print(f"perfcheck: {msg}", file=sys.stderr),
    )
    result["reps"] = args.reps

    if args.update:
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"perfcheck: baseline written to {baseline_path}")
        return 0

    report = check(result, baseline, rel_tol=REL_TOL, mad_multiplier=MAD_MULTIPLIER)
    report["measured"] = result
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(_format_report(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
