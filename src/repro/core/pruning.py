"""Constraint/variable pruning (Section V, "Pruning").

Variables and constraints that are not reachable from the objective cannot
affect the optimum, so they are removed before handing the BIP to the
solver.  The paper exploits the fact that lineage variables are created
sequentially: "a single pass over the constraints (from last to first)
suffices to identify the reachable variables".

Two variants are provided:

* :func:`prune_single_pass` — the paper's backward sweep.  Exact whenever
  every constraint's *latest-created* variable is the derived one (true for
  all constraints emitted by the LICM operators).
* :func:`prune_fixpoint` — iterates reachability to a fixed point; exact
  for arbitrary constraint stores.  This is the default used by the bounds
  API, and the test-suite checks the two agree on operator-generated models.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from repro.core.constraints import ConstraintStore, LinearConstraint


class PruneResult(NamedTuple):
    """Outcome of a pruning pass."""

    constraints: list[LinearConstraint]
    variables: set[int]
    original_constraints: int
    original_variables: int

    @property
    def stats(self) -> dict:
        """Counters matching the paper's Figure 7 reporting."""
        return {
            "variables_before": self.original_variables,
            "constraints_before": self.original_constraints,
            "variables_after": len(self.variables),
            "constraints_after": len(self.constraints),
        }


def _count_variables(store: ConstraintStore, seeds: set[int]) -> int:
    """``len(store variables | seeds)`` without copying the store's set."""
    known = store.variables
    return len(known) + sum(1 for seed in seeds if seed not in known)


def prune_single_pass(store: ConstraintStore, seeds: Iterable[int]) -> PruneResult:
    """The paper's single backward pass over the constraint list."""
    reachable = set(seeds)
    original_variables = _count_variables(store, reachable)
    kept_reversed: list[LinearConstraint] = []
    for position in range(len(store) - 1, -1, -1):
        constraint = store[position]
        if any(v in reachable for v in constraint.variables):
            kept_reversed.append(constraint)
            reachable.update(constraint.variables)
    kept_reversed.reverse()
    return PruneResult(kept_reversed, reachable, len(store), original_variables)


def prune_fixpoint(store: ConstraintStore, seeds: Iterable[int]) -> PruneResult:
    """Reachability closure over the variable/constraint bipartite graph.

    Uses the store's per-variable and position indexes, so the cost is
    linear in the size of the reachable subproblem.
    """
    reachable = set(seeds)
    original_variables = _count_variables(store, reachable)
    kept_positions: set[int] = set()
    queue = deque(reachable)
    while queue:
        var = queue.popleft()
        for constraint in store.constraints_on(var):
            pos = store.position(constraint)
            if pos in kept_positions:
                continue
            kept_positions.add(pos)
            for other in constraint.variables:
                if other not in reachable:
                    reachable.add(other)
                    queue.append(other)
    kept = [store[pos] for pos in sorted(kept_positions)]
    return PruneResult(kept, reachable, len(store), original_variables)


def prune_lineage(model, seeds: Iterable[int]) -> PruneResult:
    """Lineage-directed pruning using the model's operator lineage registry.

    Reachability only flows *backward* along recorded lineage (derived
    variable -> its parents) and through non-lineage (base correlation or
    user-added) constraints.  A sibling query's lineage constraints — which
    mention reachable base variables but define *other* derived variables —
    are dropped.  This is sound because operator lineage constraints are
    deterministic: for any assignment of their parents they have exactly
    one satisfying completion, so removing them never changes the feasible
    region projected onto the kept variables.

    This is the right pruning when several queries have been answered
    against one shared model; on a single-query model it coincides with
    :func:`prune_fixpoint`.  Like it, the cost is linear in the size of
    the reachable subproblem, not of the store.
    """
    store: ConstraintStore = model.constraints
    reachable = set(seeds)
    original_variables = _count_variables(store, reachable)
    kept_positions: set[int] = set()
    queue = deque(reachable)
    while queue:
        var = queue.popleft()
        # (1) the variable's own lineage: keep its defining constraints and
        # walk to its parents.
        if var in model.lineage_parents:
            for constraint in model.lineage_constraints[var]:
                kept_positions.add(store.position(constraint))
            for parent in model.lineage_parents[var]:
                if parent not in reachable:
                    reachable.add(parent)
                    queue.append(parent)
        # (2) base / user constraints mentioning the variable: keep them and
        # pull in their other variables.
        for constraint in store.constraints_on(var):
            if model.is_lineage_constraint(constraint):
                continue  # sibling lineage is dropped; own lineage handled above
            pos = store.position(constraint)
            if pos in kept_positions:
                continue
            kept_positions.add(pos)
            for other in constraint.variables:
                if other not in reachable:
                    reachable.add(other)
                    queue.append(other)
    kept = [store[pos] for pos in sorted(kept_positions)]
    return PruneResult(kept, reachable, len(store), original_variables)


def prune(
    store: ConstraintStore,
    seeds: Iterable[int],
    method: str = "fixpoint",
    model=None,
) -> PruneResult:
    """Dispatch to a pruning strategy.

    ``"lineage"`` (requires ``model``) drops other queries' lineage from a
    shared model; ``"fixpoint"`` is exact undirected reachability;
    ``"single_pass"`` is the paper's backward sweep.
    """
    if method == "lineage":
        if model is None:
            raise ValueError("lineage pruning needs the model")
        return prune_lineage(model, seeds)
    if method == "fixpoint":
        return prune_fixpoint(store, seeds)
    if method == "single_pass":
        return prune_single_pass(store, seeds)
    raise ValueError(f"unknown pruning method {method!r}")
