"""The operators build their output in bulk; the model must not notice.

Each operator groups with one first-appearance dict, takes a group of one
Ext as it is, builds a join bucket's suffix tuples once, writes lineage
rows through :meth:`LinearConstraint.normal` and appends its rows in one
:meth:`LICMRelation.extend`.  The references below are the per-row
translations those replaced: ``insert`` per output row, ``or_ext`` per
group, ``and_ext`` per joined pair and the checking ``LinearConstraint``
constructor per lineage row.  On random relations (certain and maybe
rows, repeated value rows, variables shared between rows and relations)
both must give the same rows and Ext in the same order, the same store
sequence ``(terms, op, rhs)``, the same pool and the same lineage
registry.

``split_blocks`` runs union-find over dense int ids; a breadth-first
search over the same incidence graph is its reference.
"""

from __future__ import annotations

from collections import defaultdict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import LinearConstraint
from repro.core.count_predicate import licm_having_count
from repro.core.database import LICMModel
from repro.core.operators import (
    licm_difference,
    licm_intersect,
    licm_join,
    licm_product,
    licm_project,
    licm_rename,
    licm_select,
    licm_union,
)
from repro.core.relation import is_certain
from repro.core.variables import BoolVar
from repro.relational.predicates import Compare
from repro.solver.decompose import split_blocks


# -- the per-row references ---------------------------------------------------
def ref_and_ext(model, left, right):
    if is_certain(left):
        return right
    if is_certain(right):
        return left
    if left == right:
        return left
    b = model.new_var()
    k, i, j = b.index, left.index, right.index
    constraints = [
        model.add(LinearConstraint(((1, k), (-1, i)), "<=", 0)),
        model.add(LinearConstraint(((1, k), (-1, j)), "<=", 0)),
        model.add(LinearConstraint(((1, k), (-1, i), (-1, j)), ">=", -1)),
    ]
    model.register_lineage(b, [left, right], constraints)
    return b


def ref_or_ext(model, exts):
    variables, seen = [], set()
    for ext in exts:
        if is_certain(ext):
            return 1
        if ext not in seen:
            seen.add(ext)
            variables.append(ext)
    if len(variables) == 1:
        return variables[0]
    b = model.new_var()
    k = b.index
    constraints = [
        model.add(LinearConstraint(((1, k), (-1, var.index)), ">=", 0)) for var in variables
    ]
    terms = [(1, k)] + [(-1, var.index) for var in variables]
    constraints.append(model.add(LinearConstraint(terms, "<=", 0)))
    model.register_lineage(b, variables, constraints)
    return b


def _ordered_groups(pairs):
    groups, order = defaultdict(list), []
    for key, ext in pairs:
        if key not in groups:
            order.append(key)
        groups[key].append(ext)
    return order, groups


def ref_project(relation, attributes):
    model = relation.model
    positions = [relation.position(a) for a in attributes]
    order, groups = _ordered_groups(
        (tuple(row.values[p] for p in positions), row.ext) for row in relation.rows
    )
    out = model.derived(attributes)
    for key in order:
        out.insert(key, ref_or_ext(model, groups[key]))
    return out


def ref_join(left, right):
    model = left.model
    shared = [a for a in left.attributes if a in right.attributes]
    if not shared:
        return ref_product(left, right)
    left_pos = [left.position(a) for a in shared]
    right_pos = [right.position(a) for a in shared]
    rest = [i for i, a in enumerate(right.attributes) if a not in shared]
    out = model.derived(tuple(left.attributes) + tuple(right.attributes[i] for i in rest))
    for lrow in left.rows:
        for rrow in right.rows:
            if [lrow.values[p] for p in left_pos] == [rrow.values[p] for p in right_pos]:
                values = lrow.values + tuple(rrow.values[i] for i in rest)
                out.insert(values, ref_and_ext(model, lrow.ext, rrow.ext))
    return out


def ref_product(left, right):
    model = left.model
    out = model.derived(tuple(left.attributes) + tuple(right.attributes))
    for lrow in left.rows:
        for rrow in right.rows:
            out.insert(lrow.values + rrow.values, ref_and_ext(model, lrow.ext, rrow.ext))
    return out


def ref_intersect(left, right):
    model = left.model
    _, right_groups = _ordered_groups((row.values, row.ext) for row in right.rows)
    order, left_groups = _ordered_groups((row.values, row.ext) for row in left.rows)
    out = model.derived(left.attributes)
    for values in order:
        if values not in right_groups:
            continue
        left_ext = ref_or_ext(model, left_groups[values])
        right_ext = ref_or_ext(model, right_groups[values])
        out.insert(values, ref_and_ext(model, left_ext, right_ext))
    return out


def ref_union(left, right):
    model = left.model
    order, groups = _ordered_groups(
        (row.values, row.ext) for row in list(left.rows) + list(right.rows)
    )
    out = model.derived(left.attributes)
    for values in order:
        out.insert(values, ref_or_ext(model, groups[values]))
    return out


def ref_difference(left, right):
    model = left.model
    _, right_groups = _ordered_groups((row.values, row.ext) for row in right.rows)
    out = model.derived(left.attributes)
    for row in ref_project(left, left.attributes).rows:
        if row.values not in right_groups:
            out.insert(row.values, row.ext)
            continue
        right_ext = ref_or_ext(model, right_groups[row.values])
        if is_certain(right_ext):
            continue
        b = model.new_var()
        k, r = b.index, right_ext.index
        if is_certain(row.ext):
            constraints = [model.add(LinearConstraint(((1, k), (1, r)), "==", 1))]
            model.register_lineage(b, [right_ext], constraints)
        else:
            q = row.ext.index
            constraints = [
                model.add(LinearConstraint(((1, k), (-1, q)), "<=", 0)),
                model.add(LinearConstraint(((1, k), (1, r)), "<=", 1)),
                model.add(LinearConstraint(((1, k), (-1, q), (1, r)), ">=", 0)),
            ]
            model.register_lineage(b, [row.ext, right_ext], constraints)
        out.insert(row.values, b)
    return out


def ref_le(model, variables, n, d):
    m = len(variables)
    if m + n <= d:
        return 1
    if n > d:
        return None
    b = model.new_var()
    k, total = b.index, [(1, var.index) for var in variables]
    constraints = [
        model.add(LinearConstraint([(d - n + 1, k), *total], ">=", d - n + 1)),
        model.add(LinearConstraint([(m - d + n, k), *total], "<=", m)),
    ]
    model.register_lineage(b, variables, constraints)
    return b


def ref_ge(model, variables, n, d):
    m = len(variables)
    if n >= d:
        return 1
    if m + n < d:
        return None
    b = model.new_var()
    k, minus_total = b.index, [(-1, var.index) for var in variables]
    constraints = [
        model.add(LinearConstraint([(d - n, k), *minus_total], "<=", 0)),
        model.add(LinearConstraint([(m - d + n + 1, k), *minus_total], ">=", -(d - n - 1))),
    ]
    model.register_lineage(b, variables, constraints)
    return b


def ref_having(relation, group_by, op, d):
    if op == "<":
        return ref_having(relation, group_by, "<=", d - 1)
    if op == ">":
        return ref_having(relation, group_by, ">=", d + 1)
    model = relation.model
    deduped = ref_project(relation, relation.attributes)
    positions = [deduped.position(a) for a in group_by]
    order, groups = _ordered_groups(
        (tuple(row.values[p] for p in positions), row.ext) for row in deduped.rows
    )
    out = model.derived(tuple(group_by))
    for key in order:
        exts = groups[key]
        n = sum(1 for e in exts if not isinstance(e, BoolVar))
        variables = [e for e in exts if isinstance(e, BoolVar)]
        if op == "<=":
            ext = ref_le(model, variables, n, d)
            if ext is not None and n == 0:
                nonempty = ref_ge(model, variables, n, 1)
                ext = None if nonempty is None else ref_and_ext(model, ext, nonempty)
        elif op == ">=":
            ext = ref_ge(model, variables, n, max(d, 1))
        else:
            if d < 1:
                continue
            le, ge = ref_le(model, variables, n, d), ref_ge(model, variables, n, d)
            ext = None if le is None or ge is None else ref_and_ext(model, le, ge)
        if ext is not None:
            out.insert(key, ext)
    return out


def ref_select(relation, predicate):
    fn = predicate.compile(relation.position)
    out = relation.model.derived(relation.attributes)
    for row in relation.rows:
        if fn(row.values):
            out.insert(row.values, row.ext)
    return out


def ref_rename(relation, mapping):
    out = relation.model.derived([mapping.get(a, a) for a in relation.attributes])
    for row in relation.rows:
        out.insert(row.values, row.ext)
    return out


BULK = dict(
    join=licm_join, product=licm_product, project=licm_project,
    intersect=licm_intersect, union=licm_union, difference=licm_difference,
    having=licm_having_count, select=licm_select, rename=licm_rename,
)
REFERENCE = dict(
    join=ref_join, product=ref_product, project=ref_project,
    intersect=ref_intersect, union=ref_union, difference=ref_difference,
    having=ref_having, select=ref_select, rename=ref_rename,
)


# -- one random database through every operator -------------------------------
SCHEMAS = {"L": ("A", "B"), "M": ("A", "B"), "R": ("B", "C")}

#: A row: values over a three-value domain (so value rows repeat) and an
#: Ext code: -1 is certain, any other code picks one of the base variables
#: (so rows and relations share variables).
row = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-1, 5))
database = st.fixed_dictionaries(
    {name: st.lists(row, max_size=9) for name in SCHEMAS}
)
thresholds = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def _run(ops, rows, thresholds):
    """Build the database in a fresh model and run every operator over
    it, chaining outputs so derived variables meet again (Q3's shape)."""
    model = LICMModel()
    base = model.new_vars(6)
    rel = {}
    for name, attributes in SCHEMAS.items():
        rel[name] = model.relation(name, attributes)
        for a, b, code in rows[name]:
            rel[name].insert((a, b), 1 if code < 0 else base[code])
    L, M, R = rel["L"], rel["M"], rel["R"]
    joined = ops["join"](L, R)
    projected = ops["project"](joined, ["A", "C"])
    outputs = [
        joined,
        projected,
        ops["project"](L, ["B"]),
        ops["project"](L, []),
        ops["intersect"](L, M),
        ops["union"](L, M),
        ops["difference"](L, M),
        ops["difference"](M, ops["select"](L, Compare("A", "<=", 1))),
        ops["product"](L, ops["rename"](R, {"B": "B2"})),
    ]
    for op, d in zip(("<=", ">=", "=="), thresholds):
        having = ops["having"](projected, ["A"], op, d)
        outputs.append(having)
        outputs.append(ops["join"](projected, having))
    outputs.append(ops["having"](L, ["A"], "<", thresholds[0]))
    outputs.append(ops["having"](joined, ["B"], ">", thresholds[1]))
    return model, outputs


def _rows(relation):
    return relation.attributes, [
        (row.values, row.ext.index if isinstance(row.ext, BoolVar) else row.ext)
        for row in relation.rows
    ]


def _model(model):
    store = model.constraints
    return (
        len(model.pool),
        [(c.terms, c.op, c.rhs) for c in store],
        list(model.lineage_parents.items()),
        [(v, [store.position(c) for c in cs]) for v, cs in model.lineage_constraints.items()],
        [model.is_lineage_constraint(c) for c in store],
    )


@given(database, thresholds)
@settings(max_examples=250, deadline=None)
def test_bulk_operators_build_the_per_row_model(rows, ds):
    bulk_model, bulk = _run(BULK, rows, ds)
    ref_model, ref = _run(REFERENCE, rows, ds)
    assert [_rows(r) for r in bulk] == [_rows(r) for r in ref]
    assert _model(bulk_model) == _model(ref_model)


def test_a_group_of_one_keeps_its_ext_and_two_are_disjoined():
    model = LICMModel()
    b = model.new_vars(3)
    relation = model.relation("R", ["K", "V"])
    for values, ext in (((0, 0), b[0]), ((1, 0), b[1]), ((1, 1), b[2]), ((2, 0), 1)):
        relation.insert(values, ext)
    out = licm_project(relation, ["K"])
    exts = [row.ext for row in out.rows]
    assert exts[0] is b[0] and exts[2] == 1
    assert exts[1].index == 3  # b1 OR b2: one fresh variable
    assert [(c.terms, c.op, c.rhs) for c in model.constraints] == [
        (((-1, 1), (1, 3)), ">=", 0),
        (((-1, 2), (1, 3)), ">=", 0),
        (((-1, 1), (-1, 2), (1, 3)), "<=", 0),
    ]


# -- the trusted constructor ---------------------------------------------------
@st.composite
def normal_terms(draw):
    indices = sorted(draw(st.sets(st.integers(0, 50), min_size=1, max_size=6)))
    coefs = draw(st.lists(
        st.integers(-4, 4).filter(bool), min_size=len(indices), max_size=len(indices)
    ))
    return tuple(zip(coefs, indices))


@given(normal_terms(), st.sampled_from(("<=", ">=", "==")), st.integers(-5, 5))
def test_normal_equals_the_checking_constructor(terms, op, rhs):
    trusted = LinearConstraint.normal(terms, op, rhs)
    checked = LinearConstraint(terms, op, rhs)
    assert (trusted.terms, trusted.op, trusted.rhs, trusted.tag) == (
        checked.terms, checked.op, checked.rhs, checked.tag
    )
    assert trusted == checked and hash(trusted) == hash(checked)
    # The checking constructor normalizes any order to the same row.
    assert LinearConstraint(terms[::-1], op, rhs) == trusted


# -- split_blocks against breadth-first search ---------------------------------
def bfs_blocks(scopes, variables=()):
    """Connected components by BFS: ``(sorted variables, constraint ids)``
    per block, ordered by smallest variable; the free block last."""
    on = defaultdict(list)
    for cid, scope in enumerate(scopes):
        for var in scope:
            on[var].append(cid)
    seen, blocks = set(), []
    for var in on:
        if var in seen:
            continue
        seen.add(var)
        queue, members, cids = deque([var]), [], set()
        while queue:
            v = queue.popleft()
            members.append(v)
            for cid in on[v]:
                if cid not in cids:
                    cids.add(cid)
                    for other in scopes[cid]:
                        if other not in seen:
                            seen.add(other)
                            queue.append(other)
        blocks.append((tuple(sorted(members)), tuple(sorted(cids))))
    blocks.sort()
    free = sorted(set(v for v in variables if v not in on))
    if free:
        blocks.append((tuple(free), ()))
    return blocks


scope = st.lists(st.integers(0, 30), min_size=1, max_size=4)


@given(st.lists(scope, max_size=25), st.lists(st.integers(0, 40), max_size=12))
@settings(max_examples=300, deadline=None)
def test_split_blocks_equals_bfs(scopes, variables):
    blocks = split_blocks(scopes, variables=variables)
    assert [(b.variables, b.constraint_ids) for b in blocks] == bfs_blocks(scopes, variables)


@given(
    st.lists(st.lists(st.sampled_from("abcdefghijkl"), min_size=1, max_size=3), max_size=8),
    st.lists(st.sampled_from("abcdefghijklmnop"), max_size=6),
)
def test_split_blocks_equals_bfs_on_string_keys(scopes, variables):
    blocks = split_blocks(scopes, variables=variables)
    assert [(b.variables, b.constraint_ids) for b in blocks] == bfs_blocks(scopes, variables)
