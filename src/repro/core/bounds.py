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

from dataclasses import dataclass, field, replace
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


def _probe(problem, options, stats, rows=(), objective=None, constant=0, sense="max"):
    """Solve a prepared ``problem`` with ``rows`` added and its objective
    replaced by ``objective`` + ``constant`` (none: a feasibility probe).

    The AVG and MIN/MAX probes' one solve path: straight through
    ``repro.engine.fabric.portfolio_solve``, looked up per call, with no
    cache (each probe is a new problem).  Counts the probe and its solve
    time into ``stats``.
    """
    from repro.engine import fabric

    probe = replace(
        problem, constraints=problem.constraints + list(rows),
        objective=objective or {}, objective_constant=constant,
    )
    solution = fabric.portfolio_solve(probe, sense, options)
    stats["solve_time"] += solution.solve_time
    stats["probes"] += 1
    return solution


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

    The deduplicated relation's lineage is prepared once, as one component
    whose ``tuples`` are every row's ``(value, index)`` and whose
    constraints include the non-empty row; each Dinkelbach step probes that
    problem with its objective replaced.  ``stats`` has the probes'
    ``solve_time`` and their count.

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

    tuples = tuple(
        (value, None if row.certain else row.ext.index)
        for row, value in zip(deduped.rows, values)
    )
    prepared = session.prepare(
        linear_sum(row.ext for row in deduped.maybe_rows),
        [linear_sum(deduped.ext_column()) >= 1],
        tuples=tuples,
    )
    (part,) = prepared.components
    # (value, column) per row; column None for a certain row.
    columns = [(v, None if i is None else part.dense[i]) for v, i in tuples]
    problem, stats = part.problem, {"solve_time": 0.0, "probes": 0}

    def ratio_of(x) -> Fraction:
        present = [v for v, column in columns if column is None or x[column] == 1]
        return Fraction(sum(present), len(present))

    # Start from any feasible non-empty world's ratio.
    start = _probe(problem, session.options, stats)
    if start.status == "infeasible":
        return AggregateBounds(lower=None, upper=None, exact=True, stats=stats)

    def dinkelbach(sense: str):
        current = ratio_of(start.x)
        for _ in range(max_iterations):
            p, q = current.numerator, current.denominator
            objective, constant = {}, 0
            for value, column in columns:
                if column is None:
                    constant += q * value - p
                else:
                    objective[column] = objective.get(column, 0) + q * value - p
            solution = _probe(
                problem, session.options, stats,
                objective={c: coef for c, coef in objective.items() if coef},
                constant=constant, sense=sense,
            )
            if solution.status != "optimal":
                raise SolverError(
                    "AVG bounds need exact subproblem optima; the solver hit "
                    f"a limit (status {solution.status!r}) — raise the limits"
                )
            gap = solution.objective
            if (sense == "max" and gap <= 0) or (sense == "min" and gap >= 0):
                return current
            current = ratio_of(solution.x)
        raise SolverError("Dinkelbach iteration did not converge")

    upper = dinkelbach("max")
    lower = dinkelbach("min")
    return AggregateBounds(lower=lower, upper=upper, exact=True, stats=stats)


def prepare_minmax(session, relation: LICMRelation, attribute: str, agg: str, key=None):
    """Prepare a MIN/MAX relation's lineage once, for :func:`minmax_bounds`.

    No probe looks at or before the extreme certain value, so it is the
    one certain entry of the result's ``tuples`` (see ``PreparedProblem``)
    and the pruning seeds are the uncertain tuples beyond it.  ``key``
    memoizes as in :meth:`~repro.engine.session.SolveSession.prepare`.
    """
    position = relation.position(attribute)
    pick = max if agg == "max" else min
    certain = [row.values[position] for row in relation.rows if row.certain]
    clip = pick(certain) if certain else None
    beyond = [
        row for row in relation.maybe_rows
        if clip is None or pick(row.values[position], clip) != clip
    ]
    tuples = ((clip, None),) if certain else ()
    tuples += tuple((row.values[position], row.ext.index) for row in beyond)
    objective = linear_sum(row.ext for row in beyond)
    return session.prepare(objective, key=key, tuples=tuples)


def minmax_bounds(
    relation: LICMRelation,
    attribute: str,
    agg: str = "max",
    options: Optional[SolverOptions] = None,
    session=None,
) -> AggregateBounds:
    """Bounds on ``MIN(attr)``/``MAX(attr)`` by case-based feasibility probes.

    The paper handles MIN/MAX "using case based reasoning".  Rank the
    distinct values so that the extreme comes last (ascending for MAX).
    The *outer* bound (MAX's upper) is the last rank at or beyond which a
    tuple can exist; the *inner* one is the first rank such that a world
    has every tuple beyond it absent and one at or before it present.
    Empty worlds leave MIN/MAX undefined and are ignored.

    Both predicates are monotone in the rank, so each bound is a
    bisection: at most ``2*ceil(log2 |values|)`` probes (one for a single
    value).  A probe adds the rows ``sum(x_beyond) <= 0`` and/or
    ``sum(x_cover) >= 1`` to the problem :func:`prepare_minmax` prepared
    once — ``relation`` may be that problem — and solves it through
    ``repro.engine.fabric.portfolio_solve``, looked up per call (``_probe``).

    ``options`` overrides the session's (the service passes a deadline
    copy).  A probe stopped by a limit before it found a world is
    answered feasible, which moves the bisection outward: the interval
    still contains the exact one, and ``exact`` is False.  ``stats`` has
    the probes' ``solve_time`` and their count.
    """
    from repro.solver.model import BIPConstraint

    if agg not in ("min", "max"):
        raise QueryError(f"agg must be 'min' or 'max', got {agg!r}")
    prepared = relation
    if isinstance(relation, LICMRelation):
        session = _session_for(relation.model, options, "lineage", session)
        prepared = prepare_minmax(session, relation, attribute, agg)
    options = options or (session.options if session is not None else SolverOptions())
    values = sorted({value for value, _ in prepared.tuples}, reverse=agg == "min")
    (part,) = prepared.components
    columns = {value: set() for value in values}  # uncertain tuples' columns
    for value, index in prepared.tuples:
        if index is not None:
            columns[value].add(part.dense[index])
    certain = 0 if any(index is None for _, index in prepared.tuples) else -1
    problem, stats, decided = part.problem, {"solve_time": 0.0, "probes": 0}, True

    def row(ranks, op: str) -> BIPConstraint:
        """``sum(x) <= 0`` or ``>= 1`` over the tuples at ``ranks``."""
        terms = sorted({column for r in ranks for column in columns[values[r]]})
        return BIPConstraint(tuple((1, column) for column in terms), op, int(op == ">="))

    def feasible(rows) -> bool:
        """Optimal, or stopped holding a world: feasible.  Infeasible:
        proven.  Stopped with no world: undecided, answered feasible."""
        nonlocal decided
        solution = _probe(problem, options, stats, rows)
        if solution.status == "infeasible":
            return False
        decided = decided and (solution.status == "optimal" or solution.x is not None)
        return True

    # Outer: a certain tuple settles it up to its rank; -1: none can exist.
    low, high = certain, len(values) - 1
    while low < high:
        mid = (low + high) // 2 + 1
        if feasible([row(range(mid, high + 1), ">=")]):
            low = mid
        else:
            high = mid - 1
    outer = low
    if outer < 0:
        return AggregateBounds(lower=None, upper=None, exact=decided, stats=stats)
    # Inner: nothing beyond ``outer`` can exist, so ``outer`` qualifies.
    low, high = max(certain, 0), outer
    while low < high:
        mid = (low + high) // 2
        rows = [row(range(mid + 1, outer + 1), "<=")]
        if certain < 0:
            rows.append(row(range(mid + 1), ">="))
        if feasible(rows):
            high = mid
        else:
            low = mid + 1
    bounds = sorted((values[low], values[outer]))
    return AggregateBounds(lower=bounds[0], upper=bounds[1], exact=decided, stats=stats)
