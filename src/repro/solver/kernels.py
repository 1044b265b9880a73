"""Vectorized numpy kernels over a compiled :class:`BIPProblem`.

The scalar solver modules (:mod:`repro.solver.propagation`,
:mod:`repro.solver.cuts`) walk Python tuples per constraint; for the
branch-and-bound hot loop that cost is paid at *every node*.  This module
compiles a problem once into CSR-style integer arrays and re-implements
the per-node primitives as whole-matrix batch operations:

* :meth:`CompiledProblem.propagate` — bound propagation to fixpoint over
  all rows at once.  Exact integer arithmetic (int64), so its fixpoint and
  its infeasibility verdict match the scalar worklist bit-for-bit: both
  compute the closure of the same monotone forcing operator, and monotone
  closures are confluent (order of application cannot change the result).
* :meth:`CompiledProblem.upper_bound` — a sound integer upper bound on the
  *maximization* objective under partial domains, without solving an LP:
  the best single-row surrogate relaxation (per-row fractional knapsack
  over the normalized <=-form rows, plus the trivial activity bound).
  Used to prove greedy seeds optimal at node 0 and to prune children
  before paying for an LP solve.
* :func:`separate_cover_cuts_vec` — cover-cut separation whose greedy
  ordering/prefix phase runs as batch array ops; emits exactly the cuts
  the scalar :func:`repro.solver.cuts.separate_cover_cuts` would.
* :class:`RootBatch` / :func:`close_roots` — the *root* work of many
  independent problems at once: their compiled arrays are stacked into
  one block-diagonal set, and propagation, a greedy seed and
  :meth:`~CompiledProblem.upper_bound` run once for all blocks with a
  verdict per block.  A block whose validated greedy point reaches its
  kernel bound is closed without a search — the same proof as the
  branch-and-bound's node-0 seed shortcut, paid once per request instead
  of once per component.  A block still open with at most
  :data:`ENUMERATE_MAX_FREE` free variables after propagation is closed
  by listing every completion (:func:`best_completion`).

These kernels are the branch-and-bound's only inner loop.  The scalar
:mod:`repro.solver.propagation` and :mod:`repro.solver.cuts` stay as the
parity oracles of the hypothesis suites in
``tests/test_kernels_properties.py`` (and serve presolve and IIS
diagnosis).

Conventions shared with the scalar modules: domains use ``FREE=-1, ZERO=0,
ONE=1``; the search works in negated-max objective space (minimization is
solved by negating coefficients); all coefficients, bounds and objective
values are integers, so dual bounds may be floored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.solver.cuts import _cover_cut, _literal_value
from repro.solver.model import BIPConstraint, BIPProblem
from repro.solver.propagation import FREE, ONE, ZERO

__all__ = [
    "ENUMERATE_MAX_FREE",
    "CompiledProblem",
    "RootBatch",
    "RootVerdict",
    "best_completion",
    "close_roots",
    "compile_problem",
    "separate_cover_cuts_vec",
]

#: same epsilon branch_and_bound uses when flooring fractional bounds
_FLOOR_EPS = 1e-7

#: Most free variables a block may keep after root propagation for
#: :func:`close_roots` to settle it by enumeration: 2**12 = 4096
#: completions, each checked against only the rows that touch them.
ENUMERATE_MAX_FREE = 12


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of a CSR-ordered value array.

    Uses cumsum-then-diff rather than ``np.add.reduceat`` because reduceat
    returns the *element* (not 0) for empty segments.
    """
    csum = np.concatenate((np.zeros(1, dtype=values.dtype), np.cumsum(values)))
    return csum[indptr[1:]] - csum[indptr[:-1]]


# The primitives below read a *view*: a CompiledProblem, or a RootBatch of
# many stacked blocks.  Both carry the same CSR arrays, and no row of a
# RootBatch spans two blocks, so per-row results are each block's own.


def _sweep_terms(view):
    """Per-nonzero constants of a propagation sweep over ``view``."""
    row = view.row
    return (
        view.rhs[row],
        view.check_le[row],
        view.check_ge[row],
        np.minimum(view.coefs, 0),
        np.maximum(view.coefs, 0),
    )


def _sweep(view, d: np.ndarray, terms) -> Tuple[np.ndarray, ...]:
    """One propagation sweep's analysis of the domains ``d``.

    Returns ``(conflict, free, zero_bad, one_bad)``: the rows whose
    activity bounds already violate them, and per nonzero whether its
    variable is free and whether fixing it to 0 / to 1 would violate its
    row.
    """
    rhs_nz, le_nz, ge_nz, neg_part, pos_part = terms
    coefs = view.coefs
    vals = d[view.cols]
    free = vals == FREE
    fixed_contrib = np.where(free, 0, coefs * np.maximum(vals, 0))
    lo = _segment_sum(np.where(free, neg_part, fixed_contrib), view.indptr)
    hi = _segment_sum(np.where(free, pos_part, fixed_contrib), view.indptr)
    conflict = (view.check_le & (lo > view.rhs)) | (view.check_ge & (hi < view.rhs))
    # Activity bounds per free nonzero if its variable took 0 / 1.
    lo0 = lo[view.row] - neg_part
    hi0 = hi[view.row] - pos_part
    lo1 = lo0 + coefs
    hi1 = hi0 + coefs
    zero_bad = (le_nz & (lo0 > rhs_nz)) | (ge_nz & (hi0 < rhs_nz))
    one_bad = (le_nz & (lo1 > rhs_nz)) | (ge_nz & (hi1 < rhs_nz))
    return conflict, free, zero_bad, one_bad


def _trivial_bound(c: np.ndarray, d: np.ndarray, free: np.ndarray, indptr=None):
    """Fixed contributions plus every free positive coefficient (per
    segment of ``indptr`` when given, else in total)."""
    fixed = np.where(free, 0, c * np.maximum(d, 0))
    positive = np.where(free & (c > 0), c, 0)
    if indptr is None:
        return int(np.sum(fixed)) + int(np.sum(positive))
    return _segment_sum(fixed, indptr) + _segment_sum(positive, indptr)


def _row_improvements(view, d: np.ndarray) -> np.ndarray:
    """Per knapsack row: how far the fractional-knapsack optimum over the
    row's free literals drops below their trivial contribution (0 when
    it does not).  A single-row surrogate relaxation, valid for any
    feasible point."""
    c = view.c
    dk = d[view.k_cols]
    freek = dk == FREE
    ck = c[view.k_cols]
    fixed_vals = np.maximum(dk, 0)
    lit_fixed = np.where(view.k_compl, 1 - fixed_vals, fixed_vals)
    used = np.where(freek, 0, view.k_w * lit_fixed)
    cap_eff = view.k_cap - _segment_sum(used, view.k_indptr)
    np.maximum(cap_eff, 0, out=cap_eff)

    # Objective of a free literal l: a + g*l (complemented literals
    # substitute x = 1 - l).  g<=0 literals sit at l=0, contributing a.
    a = np.where(view.k_compl, ck, 0)
    g = np.where(view.k_compl, -ck, ck)
    base_row = _segment_sum(np.where(freek, a, 0), view.k_indptr)
    drop_row = _segment_sum(np.where(freek & (ck > 0), ck, 0), view.k_indptr)

    fk = np.zeros(view.k_rows, dtype=np.float64)
    sel = freek & (g > 0)
    if sel.any():
        rows_s = view.k_row[sel]
        w_s = view.k_w[sel].astype(np.float64)
        g_s = g[sel].astype(np.float64)
        order = np.lexsort((-g_s / w_s, rows_s))
        rows_o = rows_s[order]
        w_o = w_s[order]
        g_o = g_s[order]
        cw = np.cumsum(w_o)
        first = np.searchsorted(rows_o, np.arange(view.k_rows))
        start_cum = np.concatenate((np.zeros(1), cw))[first]
        local = cw - start_cum[rows_o]
        prev = local - w_o
        cap_e = cap_eff[rows_o].astype(np.float64)
        full = local <= cap_e
        partial = ~full & (prev < cap_e)
        gains = np.where(full, g_o, 0.0) + np.where(
            partial, (cap_e - prev) / w_o * g_o, 0.0
        )
        fk = np.bincount(rows_o, weights=gains, minlength=view.k_rows)
    return np.maximum(drop_row - (base_row + fk), 0.0)


def _disjoint_rows(view, improvement: np.ndarray, free: np.ndarray):
    """Rows to subtract from the trivial bound, best improvement first.

    Rows whose free variables are pairwise disjoint constrain independent
    parts of the objective, so their improvements add; a row sharing a
    free variable with an earlier pick is skipped.
    """
    candidates = np.flatnonzero(improvement > _FLOOR_EPS)
    if not candidates.size:
        return
    var_used = np.zeros(free.size, dtype=bool)
    for r in candidates[np.argsort(-improvement[candidates], kind="stable")]:
        cols_r = view.k_cols[view.k_indptr[r] : view.k_indptr[r + 1]]
        free_cols = cols_r[free[cols_r]]
        if free_cols.size == 0 or var_used[free_cols].any():
            continue
        var_used[free_cols] = True
        yield r


class CompiledProblem:
    """A :class:`BIPProblem` flattened into numpy arrays, built once.

    Two views are compiled:

    * the *constraint view* (``indptr``/``cols``/``coefs``/``rhs`` plus
      ``check_le``/``check_ge`` masks) drives :meth:`propagate`;
    * the *knapsack view* normalizes every row into ``<=``-form with
      positive weights (negative coefficients complement the variable,
      ``>=`` rows are negated, ``==`` rows contribute both directions —
      the same normalization as :func:`repro.solver.cuts.knapsack_rows`,
      in the same order) and drives :meth:`upper_bound` and
      :func:`separate_cover_cuts_vec`.
    """

    def __init__(self, problem: BIPProblem):
        self.problem = problem
        n = problem.num_vars
        m = problem.num_constraints

        indptr = np.zeros(m + 1, dtype=np.int64)
        cols: List[int] = []
        coefs: List[int] = []
        rhs = np.zeros(m, dtype=np.int64)
        check_le = np.zeros(m, dtype=bool)
        check_ge = np.zeros(m, dtype=bool)
        for pos, constraint in enumerate(problem.constraints):
            for coef, idx in constraint.terms:
                cols.append(idx)
                coefs.append(coef)
            indptr[pos + 1] = len(cols)
            rhs[pos] = constraint.rhs
            check_le[pos] = constraint.op in ("<=", "==")
            check_ge[pos] = constraint.op in (">=", "==")
        self.indptr = indptr
        self.cols = np.asarray(cols, dtype=np.int64)
        self.coefs = np.asarray(coefs, dtype=np.int64)
        self.rhs = rhs
        self.check_le = check_le
        self.check_ge = check_ge
        #: row id of each nonzero (CSR row expansion)
        self.row = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))

        #: dense objective vector (constant kept separately)
        c = np.zeros(n, dtype=np.int64)
        for idx, coef in problem.objective.items():
            c[idx] = coef
        self.c = c

        # ---- knapsack view ------------------------------------------------
        k_indptr = [0]
        k_cols: List[int] = []
        k_w: List[int] = []
        k_compl: List[bool] = []
        k_cap: List[int] = []

        def normalize(terms, bound) -> None:
            capacity = bound
            start = len(k_cols)
            for coef, index in terms:
                if coef > 0:
                    k_cols.append(index)
                    k_w.append(coef)
                    k_compl.append(False)
                elif coef < 0:
                    # a*x with a<0  ==  |a|*(1-x) - |a|
                    k_cols.append(index)
                    k_w.append(-coef)
                    k_compl.append(True)
                    capacity += -coef
            if len(k_cols) == start:
                return
            k_indptr.append(len(k_cols))
            k_cap.append(capacity)

        for constraint in problem.constraints:
            if constraint.op in ("<=", "=="):
                normalize(constraint.terms, constraint.rhs)
            if constraint.op in (">=", "=="):
                normalize(
                    [(-coef, index) for coef, index in constraint.terms],
                    -constraint.rhs,
                )
        self.k_indptr = np.asarray(k_indptr, dtype=np.int64)
        self.k_cols = np.asarray(k_cols, dtype=np.int64)
        self.k_w = np.asarray(k_w, dtype=np.int64)
        self.k_compl = np.asarray(k_compl, dtype=bool)
        self.k_cap = np.asarray(k_cap, dtype=np.int64)
        self.k_rows = len(k_cap)
        self.k_row = np.repeat(
            np.arange(self.k_rows, dtype=np.int64), np.diff(self.k_indptr)
        )
        k_total = _segment_sum(self.k_w, self.k_indptr)
        #: rows the scalar ``knapsack_rows`` would emit (a cover exists)
        self.k_coverable = (k_total > self.k_cap) & (self.k_cap >= 0)

        #: constraint-row count per variable — the greedy seed prefers
        #: flipping low-degree variables (they cannot break other rows)
        self.var_degree = np.bincount(self.cols, minlength=n).astype(np.int64)

    # -- propagation --------------------------------------------------------
    def root_domains(self) -> np.ndarray:
        """A fresh all-FREE domain vector of the right dtype."""
        return np.full(self.problem.num_vars, FREE, dtype=np.int8)

    def propagate(self, domains: Sequence[int]) -> Optional[np.ndarray]:
        """Bound propagation to fixpoint; ``None`` on conflict.

        Semantically identical to the scalar
        :func:`repro.solver.propagation.propagate`: same fixpoint, same
        infeasibility verdicts (see module docstring for why the sweep
        order cannot matter).  Each sweep recomputes every row's activity
        bounds and applies all forcings at once; a sweep that fixes
        nothing terminates the loop, so at most ``num_vars + 1`` sweeps run.
        """
        d = np.array(domains, dtype=np.int8, copy=True)
        if self.cols.size == 0:
            return d
        cols = self.cols
        terms = _sweep_terms(self)
        while True:
            conflict, free, zero_bad, one_bad = _sweep(self, d, terms)
            if conflict.any() or np.any(free & zero_bad & one_bad):
                return None
            force_one = free & zero_bad & ~one_bad
            force_zero = free & one_bad & ~zero_bad
            if not force_one.any() and not force_zero.any():
                return d
            mask_one = np.zeros(d.shape, dtype=bool)
            mask_zero = np.zeros(d.shape, dtype=bool)
            mask_one[cols[force_one]] = True
            mask_zero[cols[force_zero]] = True
            if np.any(mask_one & mask_zero):
                return None
            d[mask_zero] = ZERO
            d[mask_one] = ONE

    # -- primal seed --------------------------------------------------------
    def greedy_seed(
        self, domains: Sequence[int], max_passes: int = 12
    ) -> Optional[list]:
        """Vectorized pure-greedy incumbent attempt (no LP point needed).

        Start from the objective's preferred corner, then repair each
        violated row in bulk — flipping however many free bits that row
        needs in one sweep (ordered by objective retention per unit of
        activity), instead of one bit per row per sweep.  Returns a
        feasible, domain-respecting 0/1 list or ``None``; a non-``None``
        return is always validated against every row.
        """
        d = np.asarray(domains, dtype=np.int8)
        c = self.c
        x = np.where(d == FREE, (c > 0).astype(np.int8), np.maximum(d, 0)).astype(
            np.int64
        )
        if self.cols.size == 0:
            return [int(v) for v in x]
        for _ in range(max_passes):
            act = _segment_sum(self.coefs * x[self.cols], self.indptr)
            violated = np.flatnonzero(
                (self.check_le & (act > self.rhs))
                | (self.check_ge & (act < self.rhs))
            )
            if violated.size == 0:
                return [int(v) for v in x]
            progress = False
            for r in violated:
                lo, hi = self.indptr[r], self.indptr[r + 1]
                cols_r = self.cols[lo:hi]
                coefs_r = self.coefs[lo:hi]
                lhs = int(np.sum(coefs_r * x[cols_r]))  # rows may share vars
                target = int(self.rhs[r])
                need_lower = bool(self.check_le[r]) and lhs > target
                need_higher = bool(self.check_ge[r]) and lhs < target
                if not (need_lower or need_higher):
                    continue
                free_r = d[cols_r] == FREE
                delta = coefs_r * (1 - 2 * x[cols_r])  # activity change if flipped
                if need_lower:
                    need = lhs - target
                    cand = np.flatnonzero(free_r & (delta < 0))
                    mag = -delta
                else:
                    need = target - lhs
                    cand = np.flatnonzero(free_r & (delta > 0))
                    mag = delta
                if cand.size == 0:
                    continue
                # Least objective damage per unit of activity change first;
                # ties go to low-degree variables (flipping a variable that
                # appears in no other row cannot start a repair oscillation).
                obj_delta = c[cols_r] * (1 - 2 * x[cols_r])
                score = obj_delta[cand] / mag[cand]
                order = cand[np.lexsort((self.var_degree[cols_r[cand]], -score))]
                got = np.cumsum(mag[order])
                take = int(np.searchsorted(got, need)) + 1
                flips = cols_r[order[:take]]
                x[flips] = 1 - x[flips]
                progress = True
            if not progress:
                return None
        act = _segment_sum(self.coefs * x[self.cols], self.indptr)
        ok = not np.any(
            (self.check_le & (act > self.rhs)) | (self.check_ge & (act < self.rhs))
        )
        return [int(v) for v in x] if ok else None

    # -- surrogate dual bound ----------------------------------------------
    def upper_bound(self, domains: Sequence[int]) -> int:
        """Sound integer upper bound on ``max c.x + c0`` under ``domains``.

        Only valid for domains that survived :meth:`propagate` (rows must
        be individually satisfiable).  Starting from the *trivial* bound
        (fixed contributions plus every free positive coefficient), each
        knapsack row is given an *improvement*: how far its fractional-
        knapsack optimum over the row's free literals drops below their
        trivial contribution (a single-row surrogate relaxation, valid
        for any feasible point).  Rows whose free variables are pairwise
        disjoint constrain independent parts of the objective, so their
        improvements **add**: the bound subtracts a greedily-chosen
        disjoint set of rows, best improvement first.

        On cardinality-partitioned components (the k-anonymity workload,
        where subgroup rows tile the group) this matches the LP bound,
        which is what lets a greedy seed close the node with no LP solve.
        """
        d = np.asarray(domains, dtype=np.int8)
        free = d == FREE
        total = 0.0
        if self.k_rows:
            improvement = _row_improvements(self, d)
            for r in _disjoint_rows(self, improvement, free):
                total += float(improvement[r])
        best = _trivial_bound(self.c, d, free) - total
        return math.floor(best + _FLOOR_EPS) + self.problem.objective_constant


def compile_problem(problem: BIPProblem) -> CompiledProblem:
    """Compile ``problem`` into CSR arrays (see :class:`CompiledProblem`)."""
    return CompiledProblem(problem)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``starts[b]`` is where block ``b`` begins."""
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def _stack(arrays, sizes: np.ndarray, shift: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate per-block arrays, adding ``shift[b]`` to block ``b``'s."""
    out = np.concatenate(arrays)
    if shift is not None:
        out = out + np.repeat(shift[:-1], sizes)
    return out


def _csr_ptr(indptrs, rows: np.ndarray, nnz_starts: np.ndarray) -> np.ndarray:
    """Stack per-block CSR row pointers into one pointer array."""
    tails = [indptr[1:] for indptr in indptrs]
    return np.concatenate(
        (np.zeros(1, dtype=np.int64), _stack(tails, rows, nnz_starts))
    )


@dataclass
class RootVerdict:
    """What the root kernels proved about one block of a :class:`RootBatch`.

    Values are in the block's own (signed) maximization space.  ``closed``
    means no search is needed: propagation proved the block infeasible,
    the validated greedy point ``x`` reaches the kernel upper ``bound``,
    or (``enumerated``) listing every completion of the propagated
    domains found the best feasible point ``x`` or proved there is none.
    """

    feasible: bool
    fixed: bool
    bound: Optional[int]
    x: Optional[List[int]]
    objective: Optional[int]
    enumerated: bool = False

    @property
    def closed(self) -> bool:
        if not self.feasible or self.enumerated:
            return True
        return self.x is not None and self.objective >= self.bound


def best_completion(
    compiled: CompiledProblem, sign: int, domains: np.ndarray
) -> Optional[Tuple[List[int], int]]:
    """``(x, value)``: the best feasible completion of ``domains`` and its
    objective, or ``None`` if no completion is feasible.

    Lists all ``2**k`` assignments of the ``k`` free variables (fixed
    ones keep their values) and checks them against the rows that touch
    a free variable; a row over fixed variables only is one propagation
    already found satisfied.  The objective is ``sign`` times the
    block's (constant included), and ties go to the first completion in
    counting order (bit ``j`` of the count is the ``j``-th free
    variable).  Memory is ``2**k`` times the touched rows, so callers
    bound ``k``.
    """
    free = np.flatnonzero(domains == FREE)
    k = free.size
    x = np.maximum(domains, 0).astype(np.int64)
    points = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    ok = np.ones(1 << k, dtype=bool)
    position = np.full(domains.size, -1, dtype=np.int64)
    position[free] = np.arange(k)
    touched = position[compiled.cols] >= 0
    rows = np.unique(compiled.row[touched])
    if rows.size:
        fixed_activity = _segment_sum(compiled.coefs * x[compiled.cols], compiled.indptr)
        matrix = np.zeros((rows.size, k), dtype=np.int64)
        np.add.at(
            matrix,
            (
                np.searchsorted(rows, compiled.row[touched]),
                position[compiled.cols[touched]],
            ),
            compiled.coefs[touched],
        )
        activity = points @ matrix.T + fixed_activity[rows]
        rhs = compiled.rhs[rows]
        ok = np.all(
            (~compiled.check_le[rows] | (activity <= rhs))
            & (~compiled.check_ge[rows] | (activity >= rhs)),
            axis=1,
        )
    feasible = np.flatnonzero(ok)
    if not feasible.size:
        return None
    c = sign * compiled.c
    values = points[feasible] @ c[free]
    best = int(np.argmax(values))
    value = int(c @ x) + int(values[best]) + sign * compiled.problem.objective_constant
    x[free] = points[feasible[best]]
    return x.tolist(), value


class RootBatch:
    """Independent compiled problems stacked block-diagonally.

    Block ``b`` is a ``(compiled, sign)`` pair: the rows of ``compiled``,
    and its objective times ``sign`` — ``+1`` maximizes, ``-1`` minimizes
    in the negated-max space the search works in, so one compiled problem
    serves both senses.  Row, nonzero and variable indices of block ``b``
    are shifted past those of blocks ``0..b-1``; no row spans two blocks,
    so every whole-array operation below acts on each block as if it ran
    alone, and per-block answers are read off with the ``*_block`` maps.
    """

    def __init__(self, blocks: Sequence[Tuple[CompiledProblem, int]]):
        parts = [compiled for compiled, _ in blocks]
        signs = np.asarray([sign for _, sign in blocks], dtype=np.int64)
        self.size = len(parts)
        ids = np.arange(self.size, dtype=np.int64)
        n = np.asarray([p.problem.num_vars for p in parts], dtype=np.int64)
        m = np.asarray([p.rhs.size for p in parts], dtype=np.int64)
        nnz = np.asarray([p.cols.size for p in parts], dtype=np.int64)
        km = np.asarray([p.k_rows for p in parts], dtype=np.int64)
        knz = np.asarray([p.k_cols.size for p in parts], dtype=np.int64)
        self.var_ptr = var_starts = _starts(n)
        row_starts, nz_starts = _starts(m), _starts(nnz)
        k_starts, knz_starts = _starts(km), _starts(knz)
        self.num_vars = int(var_starts[-1])

        # ---- constraint view ----------------------------------------------
        self.cols = _stack([p.cols for p in parts], nnz, var_starts)
        self.coefs = _stack([p.coefs for p in parts], nnz)
        self.indptr = _csr_ptr([p.indptr for p in parts], m, nz_starts)
        self.rhs = _stack([p.rhs for p in parts], m)
        self.check_le = _stack([p.check_le for p in parts], m)
        self.check_ge = _stack([p.check_ge for p in parts], m)
        self.row = _stack([p.row for p in parts], nnz, row_starts)
        self.var_degree = _stack([p.var_degree for p in parts], n)
        self.c = _stack([p.c for p in parts], n) * np.repeat(signs, n)
        self.const = signs * np.asarray(
            [p.problem.objective_constant for p in parts], dtype=np.int64
        )

        # ---- knapsack view ------------------------------------------------
        self.k_cols = _stack([p.k_cols for p in parts], knz, var_starts)
        self.k_w = _stack([p.k_w for p in parts], knz)
        self.k_compl = _stack([p.k_compl for p in parts], knz)
        self.k_cap = _stack([p.k_cap for p in parts], km)
        self.k_indptr = _csr_ptr([p.k_indptr for p in parts], km, knz_starts)
        self.k_row = _stack([p.k_row for p in parts], knz, k_starts)
        self.k_rows = int(k_starts[-1])

        # ---- block of each variable / row / nonzero / knapsack row ---------
        self.var_block = np.repeat(ids, n)
        self.row_block = np.repeat(ids, m)
        self.nz_block = np.repeat(ids, nnz)
        self.k_row_block = np.repeat(ids, km)

    def _flag(self, blocks: np.ndarray) -> np.ndarray:
        """A per-block mask with ``blocks`` set."""
        mask = np.zeros(self.size, dtype=bool)
        mask[blocks] = True
        return mask

    def _violated_rows(self, x: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(activity, too_high, too_low)`` per row at the 0/1 point ``x``."""
        act = _segment_sum(self.coefs * x[self.cols], self.indptr)
        return act, self.check_le & (act > self.rhs), self.check_ge & (act < self.rhs)

    # -- propagation --------------------------------------------------------
    def propagate(self) -> Tuple[np.ndarray, np.ndarray]:
        """Root propagation of every block: ``(domains, feasible)``.

        The sweep of :meth:`CompiledProblem.propagate` over all rows at
        once.  A conflict marks only its own block infeasible; that block
        stops forcing (its domains are then meaningless), and the sweeps
        go on until no feasible block fixes anything.  Each feasible
        block reaches the fixpoint it would reach alone.
        """
        d = np.full(self.num_vars, FREE, dtype=np.int8)
        feasible = np.ones(self.size, dtype=bool)
        if self.cols.size == 0:
            return d, feasible
        cols = self.cols
        terms = _sweep_terms(self)
        while True:
            conflict, free, zero_bad, one_bad = _sweep(self, d, terms)
            feasible &= ~self._flag(self.row_block[conflict])
            feasible &= ~self._flag(self.nz_block[free & zero_bad & one_bad])
            live = free & feasible[self.nz_block]
            force_one = live & zero_bad & ~one_bad
            force_zero = live & one_bad & ~zero_bad
            if not force_one.any() and not force_zero.any():
                return d, feasible
            mask_one = np.zeros(d.shape, dtype=bool)
            mask_zero = np.zeros(d.shape, dtype=bool)
            mask_one[cols[force_one]] = True
            mask_zero[cols[force_zero]] = True
            feasible &= ~self._flag(self.var_block[mask_one & mask_zero])
            live_var = feasible[self.var_block]
            d[mask_zero & live_var] = ZERO
            d[mask_one & live_var] = ONE

    # -- primal seed --------------------------------------------------------
    def greedy_seed(
        self, domains: np.ndarray, active: np.ndarray, max_passes: int = 12
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One greedy point for every ``active`` block: ``(x, found)``.

        Starts each block at its objective's preferred corner, then runs
        up to ``max_passes`` repair steps.  A step repairs *every*
        violated row of every block at once: each row flips its free bits
        that move its activity the needed way, least objective damage per
        unit of activity first (ties to low-degree variables), until the
        row's shortfall is covered.  A block with a violated row and no
        bit to flip is given up.  ``found[b]`` is set only when block
        ``b``'s point satisfies every one of its rows; fixed variables
        are never flipped.
        """
        d = domains
        c = self.c
        x = np.where(d == FREE, (c > 0).astype(np.int8), np.maximum(d, 0)).astype(
            np.int64
        )
        ok = active.copy()
        if self.cols.size == 0:
            return x, ok
        cols, row = self.cols, self.row
        free_nz = d[cols] == FREE
        for _ in range(max_passes):
            act, too_high, too_low = self._violated_rows(x)
            violated = (too_high | too_low) & ok[self.row_block]
            if not violated.any():
                break
            delta = self.coefs * (1 - 2 * x[cols])  # activity change if flipped
            cand = (
                violated[row]
                & free_nz
                & ((too_high[row] & (delta < 0)) | (too_low[row] & (delta > 0)))
            )
            stuck = self._flag(self.row_block[violated]) & ~self._flag(
                self.nz_block[cand]
            )
            ok &= ~stuck
            idx = np.flatnonzero(cand & ok[self.nz_block])
            if idx.size == 0:
                break
            rows_c = row[idx]
            mag = np.abs(delta[idx])
            score = c[cols[idx]] * (1 - 2 * x[cols[idx]]) / mag
            order = np.lexsort((self.var_degree[cols[idx]], -score, rows_c))
            rows_o, mag_o = rows_c[order], mag[order]
            got = np.cumsum(mag_o)
            first = np.searchsorted(rows_o, rows_o)
            before = got - (got[first] - mag_o[first]) - mag_o
            need = np.where(too_high, act - self.rhs, self.rhs - act)
            flips = cols[idx[order[before < need[rows_o]]]]
            x[flips] = 1 - x[flips]
        _, too_high, too_low = self._violated_rows(x)
        ok &= ~self._flag(self.row_block[too_high | too_low])
        return x, ok

    # -- surrogate dual bound ----------------------------------------------
    def upper_bound(self, domains: np.ndarray) -> np.ndarray:
        """:meth:`CompiledProblem.upper_bound` of every block, as an array.

        Only meaningful for blocks that survived :meth:`propagate`.  Each
        block's bound equals the one its own compiled problem (with the
        block's signed objective) reports: the per-row knapsack values
        are the same sums in the same order, and the disjoint-row
        selection visits a block's rows in the same order, because rows
        of different blocks never share a variable.
        """
        d = domains
        free = d == FREE
        totals = [0.0] * self.size
        if self.k_rows:
            improvement = _row_improvements(self, d)
            gain = improvement.tolist()
            block_of = self.k_row_block.tolist()
            for r in _disjoint_rows(self, improvement, free):
                totals[block_of[r]] += gain[r]
        trivial = _trivial_bound(self.c, d, free, self.var_ptr)
        best = trivial - np.asarray(totals)
        return np.floor(best + _FLOOR_EPS).astype(np.int64) + self.const

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Each block's signed objective value at ``x``."""
        return _segment_sum(self.c * x, self.var_ptr) + self.const


def close_roots(
    blocks: Sequence[Tuple[CompiledProblem, int]], max_passes: int = 12
) -> List[RootVerdict]:
    """Root verdicts for every ``(compiled, sign)`` block, in one pass.

    Stacks the blocks into a :class:`RootBatch` and runs propagation, the
    greedy seed and the kernel upper bound once for all of them.  The
    proof a closed verdict rests on is the one the branch-and-bound's
    node-0 shortcut uses: a point feasible on every row that attains a
    valid upper bound is optimal.

    A block those leave open, feasible after propagation with 1 to
    :data:`ENUMERATE_MAX_FREE` free variables, is settled by
    :func:`best_completion`.  Propagation removes no feasible point, so
    the best completion is the block's optimum, and no completion means
    no feasible point.  The optimum is claimed only once it satisfies the
    block's :meth:`~repro.solver.model.BIPProblem.is_feasible` and its
    objective value is recomputed from the problem.
    """
    if not blocks:
        return []
    batch = RootBatch(blocks)
    domains, feasible = batch.propagate()
    x, found = batch.greedy_seed(domains, feasible, max_passes)
    bound = batch.upper_bound(domains)
    value = batch.objective(x)
    free_left = np.bincount(batch.var_block[domains == FREE], minlength=batch.size)
    verdicts = []
    for b, (compiled, sign) in enumerate(blocks):
        if not feasible[b]:
            verdicts.append(RootVerdict(False, False, None, None, None))
            continue
        lo, hi = batch.var_ptr[b], batch.var_ptr[b + 1]
        point = x[lo:hi].tolist() if found[b] else None
        verdict = RootVerdict(
            feasible=True,
            fixed=free_left[b] == 0,
            bound=int(bound[b]),
            x=point,
            objective=int(value[b]) if point is not None else None,
        )
        if not verdict.closed and 0 < free_left[b] <= ENUMERATE_MAX_FREE:
            verdict = _enumerated(compiled, sign, domains[lo:hi], verdict)
        verdicts.append(verdict)
    return verdicts


def _enumerated(
    compiled: CompiledProblem, sign: int, domains: np.ndarray, verdict: RootVerdict
) -> RootVerdict:
    """``verdict`` settled by :func:`best_completion`; unchanged if the
    best completion fails its check against the problem."""
    best = best_completion(compiled, sign, domains)
    if best is None:
        return RootVerdict(False, False, None, None, None, enumerated=True)
    point, value = best
    problem = compiled.problem
    if not problem.is_feasible(point) or sign * problem.objective_value(point) != value:
        return verdict
    return replace(verdict, x=point, objective=value, enumerated=True)


def separate_cover_cuts_vec(
    compiled: CompiledProblem,
    x_lp: Sequence[float],
    max_cuts: int = 50,
    violation_tol: float = 1e-4,
) -> List[BIPConstraint]:
    """Greedy cover-cut separation; batch ordering, scalar-identical cuts.

    The per-row literal valuation, descending sort, and greedy prefix (the
    bulk of the scalar cost) run as whole-array operations; only the
    minimalization of the few *violated* candidate covers stays a narrow
    Python loop.  Output order, dedup, and the ``max_cuts`` budget match
    :func:`repro.solver.cuts.separate_cover_cuts` exactly.
    """
    if not compiled.k_rows or not compiled.k_coverable.any():
        return []
    x = np.asarray(x_lp, dtype=np.float64)
    v = np.where(compiled.k_compl, 1.0 - x[compiled.k_cols], x[compiled.k_cols])
    # Stable descending-by-value order within each row: np.lexsort is
    # stable ascending, so sorting on -v reproduces Python's
    # sorted(..., reverse=True) tie order.
    order = np.lexsort((-v, compiled.k_row))
    rows_o = compiled.k_row[order]
    w_o = compiled.k_w[order]
    cw = np.cumsum(w_o)
    first = np.searchsorted(rows_o, np.arange(compiled.k_rows))
    start_cum = np.concatenate((np.zeros(1, dtype=cw.dtype), cw))[first]
    local = cw - start_cum[rows_o]
    prev = local - w_o
    member = prev <= compiled.k_cap[rows_o]  # greedy prefix incl. overflow item

    cuts: List[BIPConstraint] = []
    seen: set = set()
    boundaries = np.searchsorted(rows_o, np.arange(compiled.k_rows + 1))
    for r in np.flatnonzero(compiled.k_coverable):
        lo, hi = boundaries[r], boundaries[r + 1]
        idxs = order[lo:hi][member[lo:hi]]
        cover = [
            (int(compiled.k_w[j]), int(compiled.k_cols[j]), bool(compiled.k_compl[j]))
            for j in idxs
        ]
        weight = sum(item[0] for item in cover)
        capacity = int(compiled.k_cap[r])
        if weight <= capacity:
            continue
        # Minimalize: drop items whose removal keeps it a cover (scalar order:
        # stable ascending by literal value).
        for item in sorted(cover, key=lambda it: _literal_value(it, x)):
            if weight - item[0] > capacity:
                cover.remove(item)
                weight -= item[0]
        lhs = sum(_literal_value(item, x) for item in cover)
        if lhs > len(cover) - 1 + violation_tol:
            cut = _cover_cut(cover)
            key = (cut.terms, cut.rhs)
            if key not in seen:
                seen.add(key)
                cuts.append(cut)
                if len(cuts) >= max_cuts:
                    break
    return cuts
