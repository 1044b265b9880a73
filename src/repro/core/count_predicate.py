"""The intermediate ``COUNT θ d`` operator — Algorithm 4 of the paper.

A count predicate in the middle of a query tree ("transactions containing
at least d matching items") groups tuples by a key and emits, per group, a
tuple over the group-by attributes whose Ext encodes whether the group's
*distinct existing members* satisfy ``COUNT θ d``.

Per group with ``m`` maybe-tuples (variables ``b1..bm``) and ``n`` certain
tuples, writing ``B = sum(bi)``:

``COUNT <= d``:
  * ``m + n <= d``  -> certain tuple,
  * ``n > d``       -> group excluded,
  * otherwise a fresh ``b`` with
    ``d - n + 1 <= (d - n + 1) b + B`` and ``m >= (m - d + n) b + B``,
    which force ``b = 1 <=> n + B <= d``.

``COUNT >= d``:
  * ``n >= d``      -> certain tuple,
  * ``m + n < d``   -> group excluded,
  * otherwise ``(d - n) b <= B`` and
    ``d - n - 1 + (m - d + n + 1) b >= B``, forcing ``b = 1 <=> n + B >= d``.

Equality and the strict comparisons are reduced to these two cases.

One refinement over the paper's pseudocode: a group key can only appear in
the output of a world where the group has at least one existing member
(SQL's GROUP BY semantics — an absent group yields no row).  For
``COUNT >= d`` with ``d >= 1`` this is implied; for ``COUNT <= d`` the
non-emptiness conjunct ``COUNT >= 1`` is added explicitly.  The paper's
queries always pair the predicate with ``>= d, d >= 1``, so this never
arises there.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import LinearConstraint
from repro.core.database import LICMModel
from repro.core.operators import and_ext, group_exts, licm_dedup, same_pool
from repro.core.relation import Ext, LICMRelation, LICMTuple
from repro.core.variables import BoolVar
from repro.errors import QueryError


def _group_rows(relation: LICMRelation, group_by: Sequence[str]) -> dict[tuple, list[Ext]]:
    """Group the relation's distinct rows by the group-by key, the keys in
    order of first appearance.

    Duplicate value-rows are merged first (set semantics: COUNT counts
    distinct tuples), matching the deterministic engine's ``having_count``.
    """
    deduped = licm_dedup(relation)
    positions = [deduped.position(a) for a in group_by]
    return group_exts(deduped.keys(positions), [row.ext for row in deduped.rows])


def _sum_terms(variables: list[BoolVar], coef: int) -> list[tuple[int, int]]:
    """``coef * Σ bi`` in normal form: ascending indices, the coefficients
    of a variable that several members share added up."""
    terms: list[tuple[int, int]] = []
    for index in sorted([var.index for var in variables]):
        if terms and terms[-1][1] == index:
            terms[-1] = (terms[-1][0] + coef, index)
        else:
            terms.append((coef, index))
    return terms


def _le_ext(model: LICMModel, variables: list[BoolVar], n: int, d: int) -> Ext | None:
    """Ext for ``COUNT <= d`` over m maybe-vars and n certain members."""
    m = len(variables)
    if m + n <= d:
        return 1
    if n > d:
        return None
    b = model.new_var()
    same_pool(b, variables)
    k, total = b.index, _sum_terms(variables, 1)  # B = Σ bi
    model.add_lineage(b, variables, [
        # d - n + 1 <= (d - n + 1) b + B
        LinearConstraint.normal((*total, (d - n + 1, k)), ">=", d - n + 1),
        # m >= (m - d + n) b + B
        LinearConstraint.normal((*total, (m - d + n, k)), "<=", m),
    ])
    return b


def _ge_ext(model: LICMModel, variables: list[BoolVar], n: int, d: int) -> Ext | None:
    """Ext for ``COUNT >= d`` over m maybe-vars and n certain members."""
    m = len(variables)
    if n >= d:
        return 1
    if m + n < d:
        return None
    b = model.new_var()
    same_pool(b, variables)
    k, minus_total = b.index, _sum_terms(variables, -1)  # -B = -Σ bi
    model.add_lineage(b, variables, [
        # (d - n) b <= B
        LinearConstraint.normal((*minus_total, (d - n, k)), "<=", 0),
        # d - n - 1 + (m - d + n + 1) b >= B
        LinearConstraint.normal((*minus_total, (m - d + n + 1, k)), ">=", -(d - n - 1)),
    ])
    return b


def licm_having_count(
    relation: LICMRelation,
    group_by: Sequence[str],
    op: str,
    threshold: int,
) -> LICMRelation:
    """Group keys whose existing-member count satisfies ``COUNT op threshold``.

    The output relation has exactly the ``group_by`` attributes; its Ext
    values implement Algorithm 4 (and its symmetric ``>=`` case), with
    ``==`` realized as the conjunction of the two one-sided variables.
    """
    if op == "<":
        return licm_having_count(relation, group_by, "<=", threshold - 1)
    if op == ">":
        return licm_having_count(relation, group_by, ">=", threshold + 1)
    if op not in ("<=", ">=", "=="):
        raise QueryError(f"unsupported count comparison {op!r}")

    model = relation.model
    groups = _group_rows(relation, group_by)
    out = model.derived(tuple(group_by), f"having({relation.name})")
    rows = []
    for key, exts in groups.items():
        variables = [e for e in exts if isinstance(e, BoolVar)]
        n = len(exts) - len(variables)
        if op == "<=":
            ext = _le_ext(model, variables, n, threshold)
            if ext is not None and n == 0:
                # The group must be non-empty for its key to appear.
                nonempty = _ge_ext(model, variables, n, 1)
                ext = None if nonempty is None else and_ext(model, ext, nonempty)
        elif op == ">=":
            ext = _ge_ext(model, variables, n, max(threshold, 1))
        else:
            if threshold < 1:
                # COUNT == d with d < 1 contradicts non-emptiness.
                continue
            le = _le_ext(model, variables, n, threshold)
            ge = _ge_ext(model, variables, n, threshold)
            ext = None if le is None or ge is None else and_ext(model, le, ge)
        if ext is not None:
            rows.append(LICMTuple(key, ext))
    out.extend(rows)
    return out
