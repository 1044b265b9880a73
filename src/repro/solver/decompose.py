"""Block-separable decomposition of binary integer programs.

The hardest workloads in the paper's evaluation (Section VI) run
aggregates over anonymized substrates whose cardinality/permutation
constraints are generated *per anonymization group*: the resulting BIP
constraint matrix is block-diagonal.  Min/max of a separable sum is the
sum of the per-block min/max, so each connected component of the
variable–constraint incidence graph can be optimized independently — in
parallel, and (in the engine) cached under its own fingerprint.

The separability argument, precisely: let the variables partition into
blocks ``V_1..V_p`` such that every constraint's scope lies inside one
block.  Any combination of per-block feasible assignments is globally
feasible (no constraint crosses blocks), and the objective splits as
``c·x = Σ_j c_j·x_j``.  Hence

* ``min c·x = Σ_j min c_j·x_j`` and likewise for max (attained by
  concatenating per-block optima);
* if any block is infeasible the whole problem is infeasible (a global
  solution would restrict to a feasible assignment of that block);
* a dual bound for the sum is the sum of per-block dual bounds, so even
  truncated (``status='limit'``) components add up soundly.

Entry points:

* :func:`split_blocks` — the union-find pass over constraint scopes (plus
  objective-only singleton variables, merged into one trailing *free*
  block), generic over hashable variable keys so the engine can reuse it
  at the LICM level; the keys get dense int ids, and the forest lives in
  lists;
* :func:`closed_form` — exact solutions for constraint-free blocks
  without touching a backend.

The engine does the splitting and the additive recombination:
``SolveSession.prepare()`` turns every problem into components, each with
its own canonical fingerprint and cache entry, and
``SolveSession.solve_prepared()`` sums their optima — see
``repro/engine/session.py`` and docs/engine.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.solver.model import BIPProblem
from repro.solver.result import Solution


@dataclass(frozen=True)
class Block:
    """One connected component of the variable–constraint graph.

    ``variables`` are the member variable keys (sorted);
    ``constraint_ids`` index into the scope list passed to
    :func:`split_blocks`.  The *free* block (variables in no constraint)
    has an empty ``constraint_ids``.
    """

    variables: Tuple[Hashable, ...]
    constraint_ids: Tuple[int, ...]

    @property
    def is_free(self) -> bool:
        return not self.constraint_ids


def split_blocks(
    scopes: Sequence[Iterable[Hashable]],
    variables: Iterable[Hashable] = (),
) -> List[Block]:
    """Partition a variable–constraint incidence graph into blocks.

    :param scopes: one iterable of variable keys per constraint.  A
        constraint with an empty scope cannot be placed in any block;
        callers must filter those out first (:class:`ValueError` here).
    :param variables: extra variable keys to place — typically the
        objective's support.  Keys appearing in no scope become
        objective-only singletons and are merged into one trailing free
        block (solvable in closed form; see :func:`closed_form`).

    Deterministic output: constrained blocks are ordered by their
    smallest variable key; the free block, if any, comes last.  Each
    input variable lands in exactly one block.
    """
    ids: Dict[Hashable, int] = {}  # variable key -> dense id, by first appearance
    parent: List[int] = []  # union-find forest over the ids
    size: List[int] = []

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    firsts: List[int] = []
    for scope in scopes:
        iterator = iter(scope)
        first = next(iterator, None)
        if first is None:
            raise ValueError(
                "constraint with an empty scope cannot be placed in a block"
            )
        a = ids.get(first)
        if a is None:
            a = ids[first] = len(parent)
            parent.append(a)
            size.append(1)
        firsts.append(a)
        for var in iterator:
            while parent[a] != a:  # the first's root (inline find)
                parent[a] = a = parent[parent[a]]
            b = ids.get(var)
            if b is None:  # a new singleton: hang it under that root
                ids[var] = len(parent)
                parent.append(a)
                size.append(0)
                size[a] += 1
                continue
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
    for var in variables:
        if var not in ids:
            ids[var] = len(parent)
            parent.append(len(parent))

    members: Dict[int, List[Hashable]] = {}
    for key, i in ids.items():
        r = root(i)
        block = members.get(r)
        if block is None:
            members[r] = [key]
        else:
            block.append(key)
    constraints_by_root: Dict[int, List[int]] = {}
    for cid, first in enumerate(firsts):
        r = root(first)
        block = constraints_by_root.get(r)
        if block is None:
            constraints_by_root[r] = [cid]
        else:
            block.append(cid)

    blocks: List[Block] = []
    free_vars: List[Hashable] = []
    for r, block_vars in members.items():
        cids = constraints_by_root.get(r)
        if cids is None:
            free_vars.extend(block_vars)
        else:
            blocks.append(Block(tuple(sorted(block_vars)), tuple(cids)))
    blocks.sort(key=lambda block: block.variables[0])
    if free_vars:
        blocks.append(Block(tuple(sorted(free_vars)), ()))
    return blocks


def closed_form(problem: BIPProblem, sense: str) -> Optional[Solution]:
    """Exact optimum of a constraint-free BIP, no backend required.

    Every variable is free, so each takes its objective-improving value
    independently.  Returns ``None`` when the problem has constraints.
    """
    if problem.constraints:
        return None
    want_high = sense == "max"
    x = [0] * problem.num_vars
    for idx, coef in problem.objective.items():
        if coef != 0 and (coef > 0) == want_high:
            x[idx] = 1
    objective = problem.objective_value(x)
    return Solution(
        status="optimal",
        objective=objective,
        x=x,
        bound=float(objective),
        nodes=0,
        solve_time=0.0,
        backend="closed-form",
    )
