"""Cover-cut separation for binary programs.

The paper leans on solvers that "already implement many techniques, such
as pre-solving, cutting plane methods, branch-and-bound, branch-and-cut";
this module defines the from-scratch branch-and-bound's cutting planes,
which the search separates with the vectorized twin in
:mod:`repro.solver.kernels`.

For a knapsack row ``sum(a_i * x_i) <= b`` with positive weights, any
*cover* ``C`` (a set with ``sum_{i in C} a_i > b``) yields the valid
inequality ``sum_{i in C} x_i <= |C| - 1``.  Rows with negative
coefficients are normalized by complementing variables
(``x' = 1 - x``), ``>=`` rows by negation, and ``==`` rows contribute both
directions.  Separation is the classical greedy: pick items by LP value
until the weights exceed the capacity, emit the cut if the LP point
violates it.

Input/output invariants (the contract the vectorized separator in
:mod:`repro.solver.kernels` holds parity with):

* ``knapsack_rows`` normalizes every row into ``<=``-form with strictly
  positive weights: a negative coefficient becomes a *complemented*
  literal ``x' = 1 - x`` (flag ``complemented=True``), a ``>=`` row is
  negated, and an ``==`` row contributes **both** directions.  The
  emitted row order is deterministic (input order, ``==`` yielding
  ``<=`` before ``>=``) — the kernels compile the identical sequence.
* Every emitted cut is a **globally valid inequality**: it is satisfied
  by every 0/1-feasible point of the original problem, not just near
  the current LP point, so cuts may be kept for the whole search and
  are safe in either objective space (they never read the objective).
* Cuts are only *emitted* when the supplied LP point violates them by
  more than a small tolerance; a cut that would not separate the point
  is suppressed.  Minimalization only removes items whose removal keeps
  the set a cover, so it preserves validity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.solver.model import BIPConstraint, BIPProblem

# One normalized knapsack item: (weight > 0, var index, complemented?)
Item = Tuple[int, int, bool]


def knapsack_rows(problem: BIPProblem) -> List[Tuple[List[Item], int]]:
    """Normalize every constraint into <=-form knapsack rows.

    Returns ``(items, capacity)`` pairs where each item's weight is
    positive and ``complemented`` marks variables that were replaced by
    their negation.  Rows whose capacity already exceeds the total weight
    are skipped (no cover exists).
    """
    rows: List[Tuple[List[Item], int]] = []

    def normalize(terms, rhs) -> None:
        items: List[Item] = []
        capacity = rhs
        for coef, index in terms:
            if coef > 0:
                items.append((coef, index, False))
            elif coef < 0:
                # a*x with a<0  ==  |a|*(1-x) - |a|
                items.append((-coef, index, True))
                capacity += -coef
        if items and sum(w for w, _, _ in items) > capacity >= 0:
            rows.append((items, capacity))

    for constraint in problem.constraints:
        if constraint.op in ("<=", "=="):
            normalize(constraint.terms, constraint.rhs)
        if constraint.op in (">=", "=="):
            normalize(
                [(-coef, index) for coef, index in constraint.terms],
                -constraint.rhs,
            )
    return rows


def _cover_cut(cover: Sequence[Item]) -> BIPConstraint:
    """``sum_{C} literal_i <= |C| - 1`` expanded over complemented literals."""
    terms = []
    rhs = len(cover) - 1
    for _, index, complemented in cover:
        if complemented:
            terms.append((-1, index))
            rhs -= 1
        else:
            terms.append((1, index))
    return BIPConstraint(tuple(terms), "<=", rhs)


def _literal_value(item: Item, x: Sequence[float]) -> float:
    weight, index, complemented = item
    return 1.0 - x[index] if complemented else x[index]


def separate_cover_cuts(
    problem: BIPProblem,
    x_lp: Sequence[float],
    max_cuts: int = 50,
    violation_tol: float = 1e-4,
) -> List[BIPConstraint]:
    """Greedy cover-cut separation at a fractional LP point."""
    cuts: List[BIPConstraint] = []
    seen: set = set()
    for items, capacity in knapsack_rows(problem):
        # Greedy cover: take literals in decreasing LP value until the
        # weights exceed the capacity.
        ordered = sorted(
            items, key=lambda item: _literal_value(item, x_lp), reverse=True
        )
        cover: List[Item] = []
        weight = 0
        for item in ordered:
            cover.append(item)
            weight += item[0]
            if weight > capacity:
                break
        if weight <= capacity:
            continue  # the row itself is not coverable at this point
        # Minimalize: drop items whose removal keeps it a cover.
        for item in sorted(cover, key=lambda it: _literal_value(it, x_lp)):
            if weight - item[0] > capacity:
                cover.remove(item)
                weight -= item[0]
        lhs = sum(_literal_value(item, x_lp) for item in cover)
        if lhs > len(cover) - 1 + violation_tol:
            cut = _cover_cut(cover)
            key = (cut.terms, cut.rhs)
            if key not in seen:
                seen.add(key)
                cuts.append(cut)
                if len(cuts) >= max_cuts:
                    break
    return cuts
