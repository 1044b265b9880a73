"""From-scratch branch-and-bound for pure-binary integer programs.

The reproduction's stand-in for CPLEX's MIP search: LP-relaxation bounding
(HiGHS ``linprog``), bound propagation at every node, rounding heuristics
for incumbents, best-bound node selection, and configurable branching
rules.  Because LICM objectives have integer coefficients, dual bounds are
floored to the nearest integer, which prunes far earlier than the raw LP
value.

Two raw-speed mechanisms sit in front of the search (see docs/solver.md):

* **Vectorized kernels**: the problem is compiled once into numpy CSR
  arrays (:mod:`repro.solver.kernels`) and per-node propagation, cover-cut
  separation, and a surrogate knapsack dual bound run as batch array
  operations.
* **Node-0 incumbent seeding** (``SolverOptions.seed_incumbent``): a
  greedy point is installed as the incumbent before any LP is solved;
  when the kernel bound already matches it, the solve closes at the root
  with *zero* LP calls — the common case for single-cardinality-row
  components.  The rounded root LP point is also offered as a seed.
  Provenance lands in ``Solution.seed_incumbent`` and the ``incumbents``
  span events.

When a tracer is active (:mod:`repro.obs.tracer`) the search opens a
``bb.search`` span with node-level profiling: nodes expanded, maximum
depth, incumbent updates, global-bound improvements, prune counts by
reason (bound, propagation, LP-infeasible, integral leaf) and a bounded
stream of sampled node records (one per ``tracer.sample_every`` expanded
nodes) — enough to see *where* a hard instance spends its search without
paying per-node export costs.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from typing import Optional

from repro.errors import InfeasibleError
from repro.obs.export import global_registry
from repro.obs.tracer import NullSpan, Stopwatch, current_tracer
from repro.solver import kernels
from repro.solver.heuristics import round_and_repair
from repro.solver.model import BIPProblem
from repro.solver.presolve import presolve
from repro.solver.propagation import FREE, ONE, ZERO
from repro.solver.relaxation import solve_relaxation
from repro.solver.result import Solution, SolverOptions

logger = logging.getLogger(__name__)

_NULL_SPAN = NullSpan()


#: count-shaped buckets for the per-search node/prune distributions
_SEARCH_BUCKETS = (1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 100_000)


def _observe_search(span, nodes: int, prunes: dict) -> None:
    """Always-on histograms over completed searches (exemplar = trace id).

    The distribution of nodes/prunes *per solve* is what makes "the p99
    solve exploded" legible on a scrape — each bucket carries a trace-id
    exemplar so the offending search's span tree is one lookup away.
    The per-reason counter answers the complementary question: *which*
    prune mechanism is doing the work fleet-wide.
    """
    trace_id = getattr(span, "trace_id", "")
    exemplar = {"trace_id": trace_id} if trace_id else None
    registry = global_registry()
    registry.histogram(
        "bb_nodes_per_solve",
        "Branch-and-bound nodes expanded per completed search",
        buckets=_SEARCH_BUCKETS,
    ).observe(nodes, exemplar=exemplar)
    registry.histogram(
        "bb_prunes_per_solve",
        "Branch-and-bound prunes (all reasons) per completed search",
        buckets=_SEARCH_BUCKETS,
    ).observe(sum(prunes.values()), exemplar=exemplar)
    counter = registry.counter(
        "bb_prunes_total", "Branch-and-bound prunes by reason"
    )
    for reason, count in prunes.items():
        if count:
            counter.inc(count, labels={"reason": reason})


def solve_bip(
    problem: BIPProblem, sense: str = "max", options: Optional[SolverOptions] = None
) -> Solution:
    """Optimize a binary program with branch-and-bound.

    ``sense`` is ``'max'`` or ``'min'``; minimization is solved by negating
    the objective.
    """
    options = options or SolverOptions()

    if sense == "min":
        negated = BIPProblem(
            num_vars=problem.num_vars,
            constraints=problem.constraints,
            objective={i: -c for i, c in problem.objective.items()},
            objective_constant=-problem.objective_constant,
            names=problem.names,
        )
        inner = solve_bip(negated, "max", options)
        return Solution(
            status=inner.status,
            objective=None if inner.objective is None else -inner.objective,
            x=inner.x,
            bound=None if inner.bound is None else -inner.bound,
            nodes=inner.nodes,
            solve_time=inner.solve_time,
            backend=inner.backend,
            seed_incumbent=inner.seed_incumbent,
        )

    tracer = current_tracer()
    if not tracer.enabled:
        return _solve_max(problem, options, _NULL_SPAN, 0)
    with tracer.span(
        "bb.search", vars=problem.num_vars, constraints=problem.num_constraints
    ) as span:
        solution = _solve_max(problem, options, span, tracer.sample_every)
        span.set("status", solution.status).set("nodes", solution.nodes)
        span.set("objective", solution.objective)
        return solution


def _solve_max(
    problem: BIPProblem, options: SolverOptions, span, sample_every: int
) -> Solution:
    """The maximization search.  ``span`` is the profiling sink — a real
    :class:`~repro.obs.tracer.Span` under tracing, a shared no-op span
    otherwise, so the hot loop has no branching on "is tracing on"."""
    clock = Stopwatch()

    # An already-cancelled solve must not claim proof: the seed shortcut can
    # close a problem before the node loop ever polls should_stop(), so the
    # cancellation sources get one poll before any root work happens.
    if options.should_stop():
        return Solution(
            status="limit", nodes=0, solve_time=clock.elapsed, backend="bb"
        )

    # ---- presolve --------------------------------------------------------
    if options.use_presolve:
        try:
            reduction = presolve(problem)
        except InfeasibleError:
            span.set("prune_presolve", 1)
            return Solution(
                status="infeasible",
                nodes=0,
                solve_time=clock.elapsed,
                backend="bb",
            )
        core = reduction.problem
    else:
        reduction = None
        core = problem

    if core.num_vars == 0:
        x = reduction.lift([]) if reduction else []
        return Solution(
            status="optimal",
            objective=core.objective_constant,
            x=x,
            bound=float(core.objective_constant),
            nodes=0,
            solve_time=clock.elapsed,
            backend="bb",
        )

    kern = kernels.compile_problem(core)
    counter = itertools.count()
    best_x: Optional[list[int]] = None
    best_obj = -math.inf
    nodes_processed = 0
    pseudocosts = [1.0] * core.num_vars  # crude degradation estimates

    # search-profiling accumulators (attached to the span after the loop)
    incumbent_updates = 0
    bound_improvements = 0
    max_depth = 0
    prunes = {
        "bound": 0,
        "child_bound": 0,
        "propagation": 0,
        "lp_infeasible": 0,
        "kernel_bound": 0,
    }
    integral_leaves = 0
    heuristic_incumbents = 0
    last_global_bound = math.inf

    def integral_objective(x_int: list[int]) -> int:
        return core.objective_value(x_int)

    def try_incumbent(x_int: list[int], source: str) -> None:
        nonlocal best_x, best_obj, incumbent_updates, heuristic_incumbents
        value = integral_objective(x_int)
        if value > best_obj and core.is_feasible(x_int):
            best_obj = value
            best_x = list(x_int)
            incumbent_updates += 1
            if source == "heuristic":
                heuristic_incumbents += 1
            span.event(
                "incumbents",
                {
                    "node": nodes_processed,
                    "objective": value,
                    "source": source,
                    "t": clock.elapsed,
                },
            )
            logger.debug(
                "incumbent %s after %d nodes (%.2fs)",
                value,
                nodes_processed,
                clock.elapsed,
            )

    # Root node.
    root_domains = kern.propagate(kern.root_domains())
    if root_domains is None:
        return Solution(
            status="infeasible",
            nodes=1,
            solve_time=clock.elapsed,
            backend="bb",
        )

    # Node-0 incumbent seeding: install a greedy incumbent before any LP
    # is solved, so bound pruning bites from the very first node.
    seed_source: Optional[str] = None
    if options.seed_incumbent:
        seeded = kern.greedy_seed(root_domains)
        if seeded is not None:
            try_incumbent(seeded, "seed")
            if incumbent_updates:
                seed_source = "greedy"

    # Kernel shortcut: when the surrogate knapsack bound already equals the
    # seed, the root is closed without solving a single LP.
    seed_closed = False
    if best_x is not None and kern.upper_bound(root_domains) <= best_obj:
        seed_closed = True
        nodes_processed = 1  # the root was evaluated and closed
        span.set("seed_shortcut", 1)

    heap: list = []
    hit_limit = False
    if not seed_closed:
        # Heap of (-bound, tiebreak, domains, x_lp, depth). Bound is the
        # floored LP value.
        status_root, lp_value, x_lp = solve_relaxation(core, root_domains)
        if status_root == "infeasible":
            return Solution(
                status="infeasible",
                nodes=1,
                solve_time=clock.elapsed,
                backend="bb",
            )

        # Offer the rounded root LP point as a (better) seed.
        if options.seed_incumbent:
            repaired = round_and_repair(core, x_lp, root_domains)
            if repaired is not None:
                before = incumbent_updates
                try_incumbent(repaired, "seed")
                if incumbent_updates > before and seed_source is None:
                    seed_source = "lp_round"

        # Root cutting planes: strengthen the relaxation with cover cuts
        # before branching (the "branch-and-cut" ingredient the paper
        # credits solvers with).  Cuts are valid for every integer-feasible
        # point, so the optimum is unchanged; only the LP bound tightens.
        cuts_added = 0
        if options.cut_rounds > 0:
            for _ in range(options.cut_rounds):
                if options.should_stop():
                    break
                if math.floor(lp_value + 1e-7) <= best_obj:
                    break  # the seed already matches the dual bound
                fractional_point = any(
                    options.integrality_tol < value < 1 - options.integrality_tol
                    for value in x_lp
                )
                if not fractional_point:
                    break
                cuts = kernels.separate_cover_cuts_vec(kern, x_lp)
                if not cuts:
                    break
                cuts_added += len(cuts)
                core = BIPProblem(
                    num_vars=core.num_vars,
                    constraints=core.constraints + cuts,
                    objective=core.objective,
                    objective_constant=core.objective_constant,
                    names=core.names,
                )
                kern = kernels.compile_problem(core)
                status_root, lp_value, x_lp = solve_relaxation(core, root_domains)
                if status_root == "infeasible":
                    # Cuts are valid for every integer point, so a
                    # cut-tightened LP going empty proves the instance has
                    # no integer solution.
                    span.set("root_cuts", cuts_added).set("prune_cuts", 1)
                    return Solution(
                        status="infeasible",
                        nodes=1,
                        solve_time=clock.elapsed,
                        backend="bb",
                    )
        span.set("root_cuts", cuts_added).set("root_lp_bound", lp_value)

        root_bound = math.floor(lp_value + 1e-7)
        heap = [(-root_bound, next(counter), root_domains, x_lp, 0)]

    while heap:
        if nodes_processed >= options.node_limit:
            hit_limit = True
            break
        if clock.elapsed > options.time_limit:
            hit_limit = True
            break
        if options.should_stop():
            hit_limit = True
            break
        neg_bound, _, domains, x_lp, depth = heapq.heappop(heap)
        bound = -neg_bound
        if bound < last_global_bound:
            # best-first pops a non-increasing bound stream: each strict
            # drop is the proven global upper bound improving.
            last_global_bound = bound
            bound_improvements += 1
            span.event(
                "bounds",
                {"node": nodes_processed, "bound": bound, "t": clock.elapsed},
            )
        if bound <= best_obj:
            prunes["bound"] += 1
            continue  # integer bound cannot improve the incumbent
        nodes_processed += 1
        if depth > max_depth:
            max_depth = depth
        if sample_every and nodes_processed % sample_every == 0:
            span.event(
                "samples",
                {
                    "node": nodes_processed,
                    "depth": depth,
                    "bound": bound,
                    "incumbent": None if best_obj == -math.inf else int(best_obj),
                    "open": len(heap),
                },
            )

        # Fractionality check against the node's LP point.
        fractional = [
            idx
            for idx in range(core.num_vars)
            if domains[idx] == FREE
            and min(x_lp[idx], 1 - x_lp[idx]) > options.integrality_tol
        ]
        if not fractional:
            x_int = [
                1 if domains[i] == ONE else 0 if domains[i] == ZERO else int(round(x_lp[i]))
                for i in range(core.num_vars)
            ]
            try_incumbent(x_int, "integral")
            integral_leaves += 1
            continue

        if options.use_heuristics:
            repaired = round_and_repair(core, x_lp, domains)
            if repaired is not None:
                try_incumbent(repaired, "heuristic")
                if bound <= best_obj:
                    prunes["bound"] += 1
                    continue

        branch_var = _pick_branch_variable(
            fractional, x_lp, pseudocosts, options.branching
        )

        # Prefer the side the LP leans toward first (helps DFS-style dives).
        order = (ONE, ZERO) if x_lp[branch_var] >= 0.5 else (ZERO, ONE)
        parent_lp = lp_value
        for value in order:
            fixed = domains.copy()
            fixed[branch_var] = value
            child = kern.propagate(fixed)
            if child is None:
                prunes["propagation"] += 1
                continue
            # Surrogate knapsack bound: prune before paying for an LP solve.
            if best_obj != -math.inf and kern.upper_bound(child) <= best_obj:
                prunes["kernel_bound"] += 1
                continue
            status, child_lp, child_x = solve_relaxation(core, child)
            if status == "infeasible":
                prunes["lp_infeasible"] += 1
                continue
            pseudocosts[branch_var] = 0.5 * pseudocosts[branch_var] + 0.5 * max(
                parent_lp - child_lp, 0.0
            )
            child_bound = math.floor(child_lp + 1e-7)
            if child_bound <= best_obj:
                prunes["child_bound"] += 1
                continue
            if options.node_selection == "dfs":
                # Simulate DFS by biasing the key with depth via the counter sign.
                heapq.heappush(
                    heap, (-child_bound, -next(counter), child, child_x, depth + 1)
                )
            else:
                heapq.heappush(
                    heap, (-child_bound, next(counter), child, child_x, depth + 1)
                )

    elapsed = clock.elapsed
    _observe_search(span, nodes_processed, prunes)
    span.set("max_depth", max_depth).set("incumbent_updates", incumbent_updates)
    span.set("bound_improvements", bound_improvements)
    span.set("integral_leaves", integral_leaves)
    span.set("heuristic_incumbents", heuristic_incumbents)
    span.set("open_nodes", len(heap)).set("hit_limit", hit_limit)
    for reason, count in prunes.items():
        span.set(f"prune_{reason}", count)

    if best_x is None and not hit_limit:
        return Solution(status="infeasible", nodes=nodes_processed, solve_time=elapsed, backend="bb")

    remaining_bound = max((-item[0] for item in heap), default=best_obj)
    proven_bound = max(best_obj, remaining_bound) if hit_limit else best_obj

    lifted = reduction.lift(best_x) if (reduction and best_x is not None) else best_x
    return Solution(
        status="limit" if hit_limit else "optimal",
        objective=None if best_obj == -math.inf else int(best_obj),
        x=lifted,
        bound=float(proven_bound) if proven_bound != -math.inf else None,
        # A seeded search can close by pruning the root before expanding
        # anything; evaluating the root still counts as one node (matching
        # the root-infeasible convention above).
        nodes=max(nodes_processed, 1),
        solve_time=elapsed,
        backend="bb",
        seed_incumbent=seed_source,
    )


def _pick_branch_variable(fractional, x_lp, pseudocosts, rule: str) -> int:
    """Choose the branching variable among the fractional ones."""
    if rule == "first":
        return fractional[0]
    if rule == "pseudocost":
        return max(
            fractional,
            key=lambda idx: pseudocosts[idx] * min(x_lp[idx], 1 - x_lp[idx]),
        )
    # most fractional (default): closest to 0.5
    return min(fractional, key=lambda idx: abs(x_lp[idx] - 0.5))
