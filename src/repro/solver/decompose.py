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
  at the LICM level;
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


class UnionFind:
    """Disjoint sets over arbitrary hashable keys (path halving, by size)."""

    def __init__(self):
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}

    def add(self, key: Hashable) -> None:
        if key not in self._parent:
            self._parent[key] = key
            self._size[key] = 1

    def find(self, key: Hashable) -> Hashable:
        parent = self._parent
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def __iter__(self):
        return iter(self._parent)

    def __len__(self) -> int:
        return len(self._parent)


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
    uf = UnionFind()
    firsts: List[Hashable] = []
    for scope in scopes:
        iterator = iter(scope)
        first = next(iterator, None)
        if first is None:
            raise ValueError(
                "constraint with an empty scope cannot be placed in a block"
            )
        uf.add(first)
        firsts.append(first)
        for var in iterator:
            uf.add(var)
            uf.union(first, var)
    for var in variables:
        uf.add(var)

    members: Dict[Hashable, List[Hashable]] = {}
    for key in uf:
        members.setdefault(uf.find(key), []).append(key)
    constraints_by_root: Dict[Hashable, List[int]] = {}
    for cid, first in enumerate(firsts):
        constraints_by_root.setdefault(uf.find(first), []).append(cid)

    blocks: List[Block] = []
    free_vars: List[Hashable] = []
    for root, block_vars in members.items():
        ids = constraints_by_root.get(root)
        if ids is None:
            free_vars.extend(block_vars)
        else:
            blocks.append(Block(tuple(sorted(block_vars)), tuple(ids)))
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
