"""LICM translations of the relational operators (Section IV-B).

Each operator consumes LICM relations bound to one model and produces a new
LICM relation in the same model, appending lineage variables and constraints
to the shared store.  The translations are *deterministic* in the paper's
sense: given an assignment to the input variables, exactly one assignment of
the output variables satisfies the added constraints — which is what makes
instantiation commute with query evaluation.

The existence-combination logic is factored into two tiny kernels:

* :func:`and_ext` — conjunction of two Ext values (intersection, product,
  join; Algorithms 2 and 3, including all the certain/maybe special cases).
* :func:`or_ext` — disjunction of many Ext values (projection / duplicate
  elimination; Algorithm 1, including Example 7's single-variable reuse
  optimization).

Lineage rows are written directly as :class:`LinearConstraint` terms over
variable indices, in the normal form expression arithmetic would produce
(the paper's form is in a comment beside each row); ``LinearExpr``
arithmetic is for encoders, objectives and hand-written constraints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.core.constraints import LinearConstraint
from repro.core.database import LICMModel
from repro.core.relation import Ext, LICMRelation, is_certain
from repro.core.variables import BoolVar
from repro.errors import ConstraintError, QueryError, SchemaError
from repro.relational.predicates import Predicate


def same_pool(b: BoolVar, parents: Sequence[BoolVar]) -> None:
    """Raise :class:`ConstraintError` unless every parent is a variable of
    ``b``'s model — the check expression arithmetic makes when two
    models' variables meet in one constraint."""
    for var in parents:
        if var.pool_id != b.pool_id:
            raise ConstraintError(
                "cannot mix variables from different models in one expression"
            )


def and_ext(model: LICMModel, left: Ext, right: Ext) -> Ext:
    """Ext of a tuple that exists iff both inputs exist (Algorithms 2/3).

    Cases mirror the paper: equal Ext values or one certain side collapse
    without new variables; only two *distinct* maybe-variables require a
    fresh lineage variable ``b`` with ``b <= bi``, ``b <= bj``,
    ``b >= bi + bj - 1``.
    """
    if is_certain(left):
        return right
    if is_certain(right):
        return left
    if left == right:
        return left
    b = model.new_var()
    same_pool(b, (left, right))
    k, i, j = b.index, left.index, right.index
    constraints = [
        model.add(LinearConstraint(((1, k), (-1, i)), "<=", 0)),  # b <= bi
        model.add(LinearConstraint(((1, k), (-1, j)), "<=", 0)),  # b <= bj
        model.add(LinearConstraint(((1, k), (-1, i), (-1, j)), ">=", -1)),  # b >= bi + bj - 1
    ]
    model.register_lineage(b, [left, right], constraints)
    return b


def or_ext(model: LICMModel, exts: Sequence[Ext]) -> Ext:
    """Ext of a tuple that exists iff any input exists (Algorithm 1).

    If any contributing tuple is certain the result is certain; a single
    distinct variable is reused directly (the T3 optimization in Example 7);
    otherwise a fresh ``b`` gets ``b >= bj`` for each input and
    ``b <= sum(bj)``.
    """
    if not exts:
        raise QueryError("or_ext requires at least one Ext value")
    variables: list[BoolVar] = []
    seen: set[BoolVar] = set()
    for ext in exts:
        if is_certain(ext):
            return 1
        if ext not in seen:
            seen.add(ext)
            variables.append(ext)
    if len(variables) == 1:
        return variables[0]
    b = model.new_var()
    same_pool(b, variables)
    k = b.index
    constraints = [  # b >= bj for each j
        model.add(LinearConstraint(((1, k), (-1, var.index)), ">=", 0)) for var in variables
    ]
    terms = [(1, k)]
    terms.extend((-1, var.index) for var in variables)
    constraints.append(model.add(LinearConstraint(terms, "<=", 0)))  # b <= Σ bj
    model.register_lineage(b, variables, constraints)
    return b


def licm_select(relation: LICMRelation, predicate: Predicate) -> LICMRelation:
    """σ: keep rows satisfying the predicate; the constraint set is untouched.

    Constraints over dropped tuples become irrelevant; as the paper notes,
    they "can be dropped, or allowed to remain: the solver will eliminate
    them later" — pruning (``repro.core.pruning``) is that elimination.
    """
    model = relation.model
    fn = predicate.compile(relation.position)
    out = model.derived(relation.attributes, f"select({relation.name})")
    for row in relation.rows:
        if fn(row.values):
            out.insert(row.values, row.ext)
    return out


def licm_project(relation: LICMRelation, attributes: Sequence[str]) -> LICMRelation:
    """π with set semantics — Algorithm 1 generalized to any attribute list.

    Rows are grouped by their projected values; each group's output Ext is
    the disjunction of the group's Ext values.
    """
    model = relation.model
    positions = [relation.position(a) for a in attributes]
    groups: dict[tuple, list[Ext]] = defaultdict(list)
    order: list[tuple] = []
    for row in relation.rows:
        key = tuple(row.values[p] for p in positions)
        if key not in groups:
            order.append(key)
        groups[key].append(row.ext)
    out = model.derived(attributes, f"project({relation.name})")
    for key in order:
        out.insert(key, or_ext(model, groups[key]))
    return out


def licm_dedup(relation: LICMRelation) -> LICMRelation:
    """Duplicate elimination = projection onto the full schema."""
    return licm_project(relation, relation.attributes)


def licm_intersect(left: LICMRelation, right: LICMRelation) -> LICMRelation:
    """∩ — Algorithm 2: a tuple survives iff it exists in both inputs."""
    model = left.model
    model.check_owns(left)
    model.check_owns(right)
    if left.attributes != right.attributes:
        raise SchemaError(
            f"intersection requires identical schemas, got "
            f"{list(left.attributes)} vs {list(right.attributes)}"
        )
    right_by_values: dict[tuple, list[Ext]] = defaultdict(list)
    for row in right.rows:
        right_by_values[row.values].append(row.ext)
    # Left copies per value-tuple, in order of first appearance.
    left_by_values: dict[tuple, list[Ext]] = defaultdict(list)
    for row in left.rows:
        left_by_values[row.values].append(row.ext)
    out = model.derived(left.attributes, f"({left.name} ∩ {right.name})")
    for values, left_copies in left_by_values.items():
        matches = right_by_values.get(values)
        if not matches:
            continue
        # A value-tuple may occur several times on either side; it is in the
        # intersection when it exists on the left AND on the right, where
        # each side's existence is the OR of its copies.
        left_ext = left_copies[0] if len(left_copies) == 1 else or_ext(model, left_copies)
        right_ext = matches[0] if len(matches) == 1 else or_ext(model, matches)
        out.insert(values, and_ext(model, left_ext, right_ext))
    return out


def licm_union(left: LICMRelation, right: LICMRelation) -> LICMRelation:
    """∪ with set semantics (extension; not in the paper's conjunctive core).

    A tuple exists iff it exists in either input — the disjunction kernel
    applies directly, so the operator stays linear and deterministic.
    """
    model = left.model
    model.check_owns(left)
    model.check_owns(right)
    if left.attributes != right.attributes:
        raise SchemaError("union requires identical schemas")
    groups: dict[tuple, list[Ext]] = defaultdict(list)
    order: list[tuple] = []
    for row in list(left.rows) + list(right.rows):
        if row.values not in groups:
            order.append(row.values)
        groups[row.values].append(row.ext)
    out = model.derived(left.attributes, f"({left.name} ∪ {right.name})")
    for values in order:
        out.insert(values, or_ext(model, groups[values]))
    return out


def licm_difference(left: LICMRelation, right: LICMRelation) -> LICMRelation:
    """Set difference (extension): exists on the left AND NOT on the right.

    ``b = bl AND NOT br`` stays linear: ``b <= bl``, ``b <= 1 - br``,
    ``b >= bl - br``.  Deterministic like the core operators.
    """
    model = left.model
    model.check_owns(left)
    model.check_owns(right)
    if left.attributes != right.attributes:
        raise SchemaError("difference requires identical schemas")
    right_groups: dict[tuple, list[Ext]] = defaultdict(list)
    for row in right.rows:
        right_groups[row.values].append(row.ext)
    dedup_left = licm_dedup(left)
    out = model.derived(left.attributes, f"({left.name} - {right.name})")
    for row in dedup_left.rows:
        matches = right_groups.get(row.values)
        if not matches:
            out.insert(row.values, row.ext)
            continue
        right_ext = matches[0] if len(matches) == 1 else or_ext(model, matches)
        if is_certain(right_ext):
            continue  # always removed
        if is_certain(row.ext):
            # exists iff right tuple absent: b = 1 - br
            b = model.new_var()
            same_pool(b, (right_ext,))
            k, r = b.index, right_ext.index
            constraints = [model.add(LinearConstraint(((1, k), (1, r)), "==", 1))]  # b = 1 - br
            model.register_lineage(b, [right_ext], constraints)
            out.insert(row.values, b)
            continue
        b = model.new_var()
        same_pool(b, (row.ext, right_ext))
        k, q, r = b.index, row.ext.index, right_ext.index
        constraints = [
            model.add(LinearConstraint(((1, k), (-1, q)), "<=", 0)),  # b <= bl
            model.add(LinearConstraint(((1, k), (1, r)), "<=", 1)),  # b <= 1 - br
            model.add(LinearConstraint(((1, k), (-1, q), (1, r)), ">=", 0)),  # b >= bl - br
        ]
        model.register_lineage(b, [row.ext, right_ext], constraints)
        out.insert(row.values, b)
    return out


def licm_rename(relation: LICMRelation, mapping: dict[str, str]) -> LICMRelation:
    """ρ: rename attributes; rows and constraints are shared unchanged."""
    model = relation.model
    attributes = [mapping.get(a, a) for a in relation.attributes]
    out = model.derived(attributes, f"rename({relation.name})")
    for row in relation.rows:
        out.insert(row.values, row.ext)
    return out


def licm_product(left: LICMRelation, right: LICMRelation) -> LICMRelation:
    """× — Algorithm 3: a pair exists iff both constituents exist."""
    model = left.model
    model.check_owns(left)
    model.check_owns(right)
    clash = set(left.attributes) & set(right.attributes)
    if clash:
        raise SchemaError(
            f"product attribute clash on {sorted(clash)}; rename one side first"
        )
    out = model.derived(
        tuple(left.attributes) + tuple(right.attributes),
        f"({left.name} × {right.name})",
    )
    for lrow in left.rows:
        for rrow in right.rows:
            out.insert(lrow.values + rrow.values, and_ext(model, lrow.ext, rrow.ext))
    return out


def licm_join(left: LICMRelation, right: LICMRelation) -> LICMRelation:
    """⋈ natural join on shared attributes, built as a hash join.

    The paper defines join as product + selection + projection; this direct
    implementation produces the identical relation and constraints while
    only materializing matching pairs (the efficient operator the paper
    alludes to).  The left rows probe ``right.index`` — for a base
    relation, the index its earlier joins on the same attributes built.
    """
    model = left.model
    model.check_owns(left)
    model.check_owns(right)
    shared = [a for a in left.attributes if a in set(right.attributes)]
    if not shared:
        return licm_product(left, right)
    left_pos = [left.position(a) for a in shared]
    right_pos = [right.position(a) for a in shared]
    right_rest = [
        i for i, a in enumerate(right.attributes) if a not in set(shared)
    ]
    out_attrs = tuple(left.attributes) + tuple(right.attributes[i] for i in right_rest)
    buckets = right.index(right_pos)
    out = model.derived(out_attrs, f"({left.name} ⋈ {right.name})")
    for lrow in left.rows:
        key = tuple(lrow.values[p] for p in left_pos)
        for rrow in buckets.get(key, ()):
            values = lrow.values + tuple(rrow.values[i] for i in right_rest)
            out.insert(values, and_ext(model, lrow.ext, rrow.ext))
    return out
