"""Aggregates at the top of the query tree (Section IV-C).

When the final operator is an aggregate, the LICM result relation turns
directly into a linear objective:

* ``COUNT(*)``: "the count is exactly the sum of all Ext values in the
  final relation" — after duplicate elimination, since relational COUNT here
  follows the model's set semantics.
* ``SUM(attr)`` over a constant numeric attribute: each value times its
  tuple's Ext.
* ``MIN``/``MAX`` are handled by case reasoning (the paper sketches this);
  :mod:`repro.core.bounds` realizes it with feasibility probes over the
  sorted distinct values.
"""

from __future__ import annotations

from repro.core.linexpr import LinearExpr, linear_sum
from repro.core.operators import licm_dedup
from repro.core.relation import LICMRelation
from repro.errors import QueryError


def count_objective(relation: LICMRelation, dedup: bool = True) -> LinearExpr:
    """Objective expression for ``COUNT(*)`` over the result relation.

    ``dedup=True`` (default) first merges duplicate value-rows so the count
    has set semantics; pass ``False`` when the caller knows rows are
    already distinct (saves the extra projection).
    """
    if dedup:
        relation = licm_dedup(relation)
    return linear_sum(relation.ext_column())


def sum_objective(
    relation: LICMRelation, attribute: str, dedup: bool = True
) -> LinearExpr:
    """Objective expression for ``SUM(attribute)``.

    Attribute values must be integers (LICM is an integer model); each row
    contributes ``value * Ext``.
    """
    if dedup:
        relation = licm_dedup(relation)
    position = relation.position(attribute)
    terms = []
    for row in relation.rows:
        value = row.values[position]
        if not isinstance(value, int):
            raise QueryError(
                f"SUM({attribute}) requires integer values, found {value!r}"
            )
        terms.append(value if row.certain else value * row.ext)
    return linear_sum(terms)
