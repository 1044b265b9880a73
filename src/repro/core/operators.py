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

Lineage rows are written directly in the normal form expression arithmetic
would produce (:meth:`LinearConstraint.normal`; the paper's form is in a
comment beside each row); ``LinearExpr`` arithmetic is for encoders,
objectives and hand-written constraints.  Each operator builds its output
rows in one list and appends them in one :meth:`LICMRelation.extend`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.constraints import LinearConstraint
from repro.core.database import LICMModel
from repro.core.relation import Ext, LICMRelation, LICMTuple, is_certain
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
    both = ((-1, i), (-1, j)) if i < j else ((-1, j), (-1, i))
    normal = LinearConstraint.normal
    model.add_lineage(b, [left, right], [
        normal(((-1, i), (1, k)), "<=", 0),  # b <= bi
        normal(((-1, j), (1, k)), "<=", 0),  # b <= bj
        normal((*both, (1, k)), ">=", -1),  # b >= bi + bj - 1
    ])
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
    normal = LinearConstraint.normal
    constraints = [normal(((-1, var.index), (1, k)), ">=", 0) for var in variables]  # b >= bj
    total = [(-1, index) for index in sorted([var.index for var in variables])]
    total.append((1, k))
    constraints.append(normal(tuple(total), "<=", 0))  # b <= Σ bj
    model.add_lineage(b, variables, constraints)
    return b


def group_exts(keys: Iterable[Hashable], exts: Iterable[Ext]) -> dict[Hashable, list[Ext]]:
    """Ext values grouped by their keys, the keys in order of first
    appearance."""
    groups: dict[Hashable, list[Ext]] = {}
    for key, ext in zip(keys, exts):
        members = groups.get(key)
        if members is None:
            groups[key] = [ext]
        else:
            members.append(ext)
    return groups


def _any_ext(model: LICMModel, exts: Sequence[Ext]) -> Ext:
    """:func:`or_ext` of one group; a group of one keeps its Ext."""
    if len(exts) == 1:
        ext = exts[0]
        return ext if isinstance(ext, BoolVar) else 1
    return or_ext(model, exts)


def _disjoined(model: LICMModel, groups: dict[tuple, list[Ext]]) -> list[LICMTuple]:
    """One row per group, its Ext the :func:`_any_ext` of the group's."""
    return [LICMTuple(values, _any_ext(model, exts)) for values, exts in groups.items()]


def _by_values(relation: LICMRelation) -> dict[tuple, list[Ext]]:
    """The relation's Ext values grouped by row values."""
    rows = relation.rows
    return group_exts([row.values for row in rows], [row.ext for row in rows])


def licm_select(relation: LICMRelation, predicate: Predicate) -> LICMRelation:
    """σ: keep rows satisfying the predicate; the constraint set is untouched.

    Constraints over dropped tuples become irrelevant; as the paper notes,
    they "can be dropped, or allowed to remain: the solver will eliminate
    them later" — pruning (``repro.core.pruning``) is that elimination.
    """
    model = relation.model
    fn = predicate.compile(relation.position)
    out = model.derived(relation.attributes, f"select({relation.name})")
    out.extend([row for row in relation.rows if fn(row.values)])
    return out


def licm_project(relation: LICMRelation, attributes: Sequence[str]) -> LICMRelation:
    """π with set semantics — Algorithm 1 generalized to any attribute list.

    Rows are grouped by their projected values; each group's output Ext is
    the disjunction of the group's Ext values.
    """
    model = relation.model
    positions = [relation.position(a) for a in attributes]
    groups = group_exts(relation.keys(positions), [row.ext for row in relation.rows])
    out = model.derived(attributes, f"project({relation.name})")
    out.extend(_disjoined(model, groups))
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
    right_groups = _by_values(right)
    out = model.derived(left.attributes, f"({left.name} ∩ {right.name})")
    rows = []
    for values, left_exts in _by_values(left).items():
        right_exts = right_groups.get(values)
        if right_exts is None:
            continue
        # A value-tuple may occur several times on either side; it is in the
        # intersection when it exists on the left AND on the right, where
        # each side's existence is the OR of its copies.
        left_ext = _any_ext(model, left_exts)
        right_ext = _any_ext(model, right_exts)
        rows.append(LICMTuple(values, and_ext(model, left_ext, right_ext)))
    out.extend(rows)
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
    rows = (*left.rows, *right.rows)
    groups = group_exts([row.values for row in rows], [row.ext for row in rows])
    out = model.derived(left.attributes, f"({left.name} ∪ {right.name})")
    out.extend(_disjoined(model, groups))
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
    right_groups = _by_values(right)
    normal = LinearConstraint.normal
    out = model.derived(left.attributes, f"({left.name} - {right.name})")
    rows = []
    for row in licm_dedup(left).rows:
        matches = right_groups.get(row.values)
        if matches is None:
            rows.append(row)
            continue
        right_ext = _any_ext(model, matches)
        if is_certain(right_ext):
            continue  # always removed
        if is_certain(row.ext):
            # exists iff right tuple absent: b = 1 - br
            b = model.new_var()
            same_pool(b, (right_ext,))
            k, r = b.index, right_ext.index
            model.add_lineage(b, [right_ext], [normal(((1, r), (1, k)), "==", 1)])  # b = 1 - br
            rows.append(LICMTuple(row.values, b))
            continue
        b = model.new_var()
        same_pool(b, (row.ext, right_ext))
        k, q, r = b.index, row.ext.index, right_ext.index
        if q < r:
            net = ((-1, q), (1, r), (1, k))
        elif r < q:
            net = ((1, r), (-1, q), (1, k))
        else:  # the same variable on both sides: bl - br is 0
            net = ((1, k),)
        model.add_lineage(b, [row.ext, right_ext], [
            normal(((-1, q), (1, k)), "<=", 0),  # b <= bl
            normal(((1, r), (1, k)), "<=", 1),  # b <= 1 - br
            normal(net, ">=", 0),  # b >= bl - br
        ])
        rows.append(LICMTuple(row.values, b))
    out.extend(rows)
    return out


def licm_rename(relation: LICMRelation, mapping: dict[str, str]) -> LICMRelation:
    """ρ: rename attributes; rows and constraints are shared unchanged."""
    model = relation.model
    attributes = [mapping.get(a, a) for a in relation.attributes]
    out = model.derived(attributes, f"rename({relation.name})")
    out.extend(relation.rows)
    return out


def _pairs(
    model: LICMModel,
    left: LICMRelation,
    left_pos: Sequence[int],
    right: LICMRelation,
    buckets: dict[tuple, list[LICMTuple]],
    rest: Sequence[int],
) -> list[LICMTuple]:
    """Every left row paired with the right rows in its key's bucket:
    values ``left + right values at rest``, Ext the conjunction of the two.

    A bucket's suffix tuples are built once, on the first left row that
    reaches it.  A certain left row takes each right Ext as it is, and a
    maybe left row keeps its own against a certain right row: what
    :func:`and_ext` returns, without the call."""
    suffixes: dict[tuple, list[tuple[tuple, Ext]]] = {}
    rows: list[LICMTuple] = []
    for lrow, key in zip(left.rows, left.keys(left_pos)):
        matches = suffixes.get(key)
        if matches is None:
            bucket = buckets.get(key, ())
            matches = suffixes[key] = list(
                zip(right.keys(rest, bucket), [rrow.ext for rrow in bucket])
            )
        values, ext = lrow.values, lrow.ext
        if isinstance(ext, BoolVar):
            rows += [
                LICMTuple(
                    values + suffix,
                    and_ext(model, ext, rext) if isinstance(rext, BoolVar) else ext,
                )
                for suffix, rext in matches
            ]
        else:
            rows += [LICMTuple(values + suffix, rext) for suffix, rext in matches]
    return rows


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
    everything = {(): right.rows}
    out.extend(_pairs(model, left, (), right, everything, range(len(right.attributes))))
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
    out.extend(_pairs(model, left, left_pos, right, buckets, right_rest))
    return out
