"""Aggregate bounds via binary integer programming (Section IV-D).

The result of an LICM query plus the model's constraint store *is* a BIP:
the objective is the aggregate expression over the result relation, the
constraints are the (pruned) lineage constraints.  Maximizing and
minimizing give exact upper and lower bounds, and each optimal solution
vector is a witness — the assignment identifying the extreme possible world.

The heavy lifting lives in :mod:`repro.engine`: a
:class:`~repro.engine.session.SolveSession` owns the
``prune -> normal form -> solve(min)+solve(max) -> witness`` pipeline with
caching and parallelism.  The functions here are the stable
public facade — each builds (or accepts) a session and delegates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.aggregates import count_objective, sum_objective
from repro.core.database import LICMModel
from repro.core.linexpr import LinearExpr, linear_sum
from repro.core.operators import licm_dedup
from repro.core.relation import LICMRelation
from repro.errors import QueryError, SolverError
from repro.solver.result import SolverOptions


@dataclass
class AggregateBounds:
    """Exact (or gap-bounded, on solver limits) range of an aggregate answer."""

    lower: Optional[int]
    upper: Optional[int]
    lower_witness: Optional[dict[int, int]] = None
    upper_witness: Optional[dict[int, int]] = None
    exact: bool = True
    lower_bound_proven: Optional[float] = None
    upper_bound_proven: Optional[float] = None
    stats: dict = field(default_factory=dict)

    @property
    def width(self) -> Optional[int]:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower

    def __repr__(self) -> str:
        marker = "" if self.exact else " (approximate)"
        return f"[{self.lower}, {self.upper}]{marker}"


def _session_for(model, options, prune_method, session):
    """Resolve the session a facade call should run on."""
    if session is not None:
        return session
    from repro.engine.session import SolveSession

    return SolveSession(model, options=options, prune_method=prune_method)


def objective_bounds(
    model: LICMModel,
    objective: LinearExpr,
    options: Optional[SolverOptions] = None,
    prune_method: str = "lineage",
    do_prune: bool = True,
    session=None,
) -> AggregateBounds:
    """Min/max of an arbitrary linear objective over all possible worlds.

    Builds the BIP from the model's constraint store (pruned to the part
    reachable from the objective unless ``do_prune=False``), solves both
    directions, and translates the witnesses back to model assignments.
    The default lineage-directed pruning also drops the lineage of *other*
    queries previously answered against the same model.

    Pass ``session`` (a :class:`~repro.engine.session.SolveSession`) to
    reuse its solve cache and executor across calls; ``options``
    and ``prune_method`` are then taken from the session.
    """
    return _session_for(model, options, prune_method, session).bounds(
        objective, do_prune=do_prune
    )


def count_bounds(
    relation: LICMRelation,
    options: Optional[SolverOptions] = None,
    dedup: bool = True,
    **kwargs,
) -> AggregateBounds:
    """Bounds on ``COUNT(*)`` of an LICM result relation."""
    return objective_bounds(
        relation.model, count_objective(relation, dedup=dedup), options, **kwargs
    )


def sum_bounds(
    relation: LICMRelation,
    attribute: str,
    options: Optional[SolverOptions] = None,
    dedup: bool = True,
    **kwargs,
) -> AggregateBounds:
    """Bounds on ``SUM(attribute)`` of an LICM result relation."""
    return objective_bounds(
        relation.model, sum_objective(relation, attribute, dedup=dedup), options, **kwargs
    )


def group_count_bounds(
    relation: LICMRelation,
    group_by,
    options: Optional[SolverOptions] = None,
    session=None,
) -> dict:
    """Per-group COUNT bounds: ``group key -> AggregateBounds``.

    The GROUP-BY analogue of :func:`count_bounds` — e.g. Example 1's "how
    many customers *per region*".  Each group's objective is the sum of its
    (deduplicated) members' Ext values; two BIP solves per group, each over
    the group's own pruned subproblem, so cost scales with the groups
    actually touched by uncertainty (all-certain groups are answered
    without a solver call).  All groups share one solve session.
    """
    from collections import defaultdict

    model = relation.model
    session = _session_for(model, options, "lineage", session)
    deduped = licm_dedup(relation)
    positions = [deduped.position(a) for a in group_by]
    groups: dict = defaultdict(list)
    order = []
    for row in deduped.rows:
        key = tuple(row.values[p] for p in positions)
        if key not in groups:
            order.append(key)
        groups[key].append(row.ext)

    out: dict = {}
    for key in order:
        exts = groups[key]
        certain = sum(1 for e in exts if not hasattr(e, "index"))
        variables = [e for e in exts if hasattr(e, "index")]
        if not variables:
            out[key] = AggregateBounds(lower=certain, upper=certain, exact=True)
            continue
        objective = linear_sum(exts)
        out[key] = session.bounds(objective)
    return out


def avg_bounds(
    relation: LICMRelation,
    attribute: str,
    options: Optional[SolverOptions] = None,
    max_iterations: int = 100,
    session=None,
) -> AggregateBounds:
    """Bounds on ``AVG(attribute)`` over non-empty worlds of the relation.

    AVG is a *fractional* aggregate — SUM/COUNT — so a single BIP cannot
    express it.  This uses Dinkelbach's algorithm: for a candidate value
    ``t = p/q``, ``max AVG >= t`` iff ``max sum((q*v_i - p) * x_i) >= 0``
    subject to the world being non-empty; iterating ``t`` to the maximizer's
    ratio converges in finitely many exact (rational) steps because the
    optimum is a ratio of bounded integers.  Bounds are returned as
    ``fractions.Fraction`` values in ``lower``/``upper``.

    Worlds where the relation is empty leave AVG undefined and are skipped
    (SQL semantics); if no non-empty world exists the bounds are ``None``.
    """
    from fractions import Fraction

    model = relation.model
    session = _session_for(model, options, "lineage", session)
    deduped = licm_dedup(relation)
    position = deduped.position(attribute)
    values = []
    for row in deduped.rows:
        value = row.values[position]
        if not isinstance(value, int):
            raise QueryError(f"AVG({attribute}) requires integer values")
        values.append(value)
    if not deduped.rows:
        return AggregateBounds(lower=None, upper=None, exact=True)

    nonempty = [linear_sum(deduped.ext_column()) >= 1]

    def dinkelbach(sense: str):
        # Start from any feasible non-empty world's ratio.
        probe = LinearExpr({}, 0)
        solution, dense = session.optimize(probe, "max", nonempty)
        if solution.status == "infeasible":
            return None
        inverse = {d: m for m, d in dense.items()}

        def ratio_of(solution):
            assignment = {inverse[i]: v for i, v in enumerate(solution.x)}
            total, count = 0, 0
            for row, value in zip(deduped.rows, values):
                present = row.certain or assignment.get(row.ext.index, 0) == 1
                if present:
                    total += value
                    count += 1
            return Fraction(total, count)

        current = ratio_of(solution)
        for _ in range(max_iterations):
            p, q = current.numerator, current.denominator
            objective = linear_sum(
                q * value - p if row.certain else (q * value - p) * row.ext
                for row, value in zip(deduped.rows, values)
            )
            solution, dense = session.optimize(
                objective, "max" if sense == "max" else "min", nonempty
            )
            if solution.status != "optimal":
                raise SolverError(
                    "AVG bounds need exact subproblem optima; the solver hit "
                    f"a limit (status {solution.status!r}) — raise the limits"
                )
            inverse = {d: m for m, d in dense.items()}
            gap = solution.objective
            if (sense == "max" and gap <= 0) or (sense == "min" and gap >= 0):
                return current
            current = ratio_of(solution)
        raise SolverError("Dinkelbach iteration did not converge")

    upper = dinkelbach("max")
    lower = dinkelbach("min")
    return AggregateBounds(lower=lower, upper=upper, exact=True)


def minmax_bounds(
    relation: LICMRelation,
    attribute: str,
    agg: str = "max",
    options: Optional[SolverOptions] = None,
    session=None,
) -> AggregateBounds:
    """Bounds on ``MIN(attr)``/``MAX(attr)`` by case-based feasibility probes.

    The paper handles MIN/MAX "using case based reasoning"; concretely, for
    MAX the upper bound is the largest value whose tuple can exist in some
    world, and the lower bound is the largest value ``v`` such that *some*
    world contains no tuple with value ``> v`` — each test is one
    feasibility BIP over the tuples above/below a candidate value.
    MIN is symmetric.  Worlds where the relation is empty make MIN/MAX
    undefined; such worlds are ignored (SQL semantics would yield NULL).
    All probes share one solve session, so repeated cut structures hit the
    session's cache.

    When ``session`` is given, ``options`` (if also given) overrides its
    solver options per probe — the service layer passes a deadline-clamped
    copy so MIN/MAX requests honour their budget too.  A probe stopped
    by a limit before it found a world is undecided: it is answered as
    feasible, so the interval still contains the exact one, and the
    result reports ``exact=False``.  ``stats['solve_time']`` sums the
    probes' solver wall time.
    """
    if agg not in ("min", "max"):
        raise QueryError(f"agg must be 'min' or 'max', got {agg!r}")
    model = relation.model
    if session is None:
        session = _session_for(model, options, "lineage", None)
        probe_options = None
    else:
        probe_options = options
    position = relation.position(attribute)
    rows = relation.rows
    if not rows:
        return AggregateBounds(lower=None, upper=None, exact=True)
    values = sorted({row.values[position] for row in rows})
    solve_time = 0.0
    decided = True

    def feasible(extra) -> bool:
        """One feasibility probe (as ``session.feasible``), timed.

        Optimal, or stopped at a limit holding an incumbent world: proven
        feasible.  Infeasible: proven.  Stopped with no incumbent: not
        decided — answered feasible, which widens the interval outward
        (every scan below stops at its first feasible cut, which is then
        at or beyond the exact endpoint), and the result loses ``exact``.
        """
        nonlocal solve_time, decided
        solution, _ = session.optimize(
            LinearExpr({}, 0), "max", extra, options=probe_options
        )
        solve_time += solution.solve_time
        if solution.status == "infeasible":
            return False
        if solution.status != "optimal" and solution.x is None:
            decided = False
        return True

    def exists_bound(candidates, pick):
        """Extreme value over tuples that can individually exist."""
        for value in pick(candidates):
            group = [r for r in rows if r.values[position] == value]
            if any(r.certain for r in group):
                return value
            for row in group:
                force = [(row.ext + 0) >= 1]
                if feasible(force):
                    return value
        return None

    def absent_bound(candidates, side):
        """Extreme achievable when all tuples beyond a cut can be absent.

        For MAX's lower bound: smallest v in values such that some world
        has all tuples with value > v absent AND some tuple <= v present...
        handled by scanning cuts from the extreme inward.
        """
        for value in pick_order:
            if side == "upper_cut":  # for MAX lower bound
                above = [r for r in rows if r.values[position] > value]
                here_or_below = [r for r in rows if r.values[position] <= value]
            else:  # for MIN upper bound
                above = [r for r in rows if r.values[position] < value]
                here_or_below = [r for r in rows if r.values[position] >= value]
            if any(r.certain for r in above):
                continue
            extra = [(r.ext + 0) <= 0 for r in above]
            # At least one surviving tuple must exist for the aggregate to
            # be defined; certain tuples guarantee it.
            if not any(r.certain for r in here_or_below):
                extra.append(linear_sum([r.ext for r in here_or_below]) >= 1)
            if feasible(extra):
                return value
        return None

    if agg == "max":
        upper = exists_bound(values, lambda vs: reversed(vs))
        pick_order = values  # smallest cut first
        lower = absent_bound(values, "upper_cut")
    else:
        lower = exists_bound(values, lambda vs: iter(vs))
        pick_order = list(reversed(values))  # largest first
        upper = absent_bound(values, "lower_cut")
    return AggregateBounds(
        lower=lower,
        upper=upper,
        exact=decided,
        stats={"solve_time": solve_time},
    )
