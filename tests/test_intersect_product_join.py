"""Unit tests for LICM intersection (Algorithm 2), product (Algorithm 3)
and join, including the Figure 3 walk-through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import LICMModel
from repro.core.operators import (
    and_ext,
    licm_intersect,
    licm_join,
    licm_product,
    licm_rename,
)
from repro.core.worlds import instantiate
from repro.errors import SchemaError
from helpers import all_valid_assignments, fig3_models


def test_and_ext_cases():
    model = LICMModel()
    x, y = model.new_vars(2)
    assert and_ext(model, 1, 1) == 1
    assert and_ext(model, x, 1) == x
    assert and_ext(model, 1, y) == y
    assert and_ext(model, x, x) == x
    before = model.num_constraints
    combined = and_ext(model, x, y)
    assert combined not in (x, y, 1)
    assert model.num_constraints == before + 3  # the three AND constraints


def test_fig3_intersection_structure():
    """Figure 3(c): (T1, wine) gets a fresh AND variable; (T2, beer) reuses b4."""
    model, r1, r2, v = fig3_models()
    result = licm_intersect(r1, r2)
    rows = {row.values: row.ext for row in result.rows}
    assert set(rows) == {("T1", "wine"), ("T2", "beer")}
    assert rows[("T2", "beer")] == v["b4"]  # left side certain
    b5 = rows[("T1", "wine")]
    assert b5 not in (v["b1"], v["b3"], 1)


def test_fig3_intersection_semantics():
    """b5 = 1 iff b1 = 1 and b3 = 1 — checked over all valid worlds."""
    model, r1, r2, _ = fig3_models()
    result = licm_intersect(r1, r2)
    for assignment in all_valid_assignments(model):
        expected = set(instantiate(r1, assignment)) & set(instantiate(r2, assignment))
        assert set(instantiate(result, assignment)) == expected


def test_intersection_schema_mismatch():
    model = LICMModel()
    r1 = model.relation("R1", ["A"])
    r2 = model.relation("R2", ["B"])
    with pytest.raises(SchemaError):
        licm_intersect(r1, r2)


def test_intersection_duplicate_value_rows():
    """Copies on one side OR together before the AND with the other side."""
    model = LICMModel()
    r1 = model.relation("R1", ["A"])
    r2 = model.relation("R2", ["A"])
    a1, a2, b = model.new_vars(3)
    r1.insert(("x",), ext=a1)
    r1.insert(("x",), ext=a2)
    r2.insert(("x",), ext=b)
    result = licm_intersect(r1, r2)
    assert len(result) == 1
    for assignment in all_valid_assignments(model):
        expected = set(instantiate(r1, assignment)) & set(instantiate(r2, assignment))
        assert set(instantiate(result, assignment)) == expected


def test_product_world_equivalence():
    model = LICMModel()
    r1 = model.relation("R1", ["A"])
    r2 = model.relation("R2", ["B"])
    a, b = model.new_vars(2)
    r1.insert(("x",), ext=a)
    r1.insert(("y",))
    r2.insert((1,), ext=b)
    r2.insert((2,))
    result = licm_product(r1, r2)
    assert result.attributes == ("A", "B")
    assert len(result) == 4
    for assignment in all_valid_assignments(model):
        left = instantiate(r1, assignment)
        right = instantiate(r2, assignment)
        expected = {l + r for l in left for r in right}
        assert set(instantiate(result, assignment)) == expected


def test_product_attribute_clash_requires_rename():
    model = LICMModel()
    r1 = model.relation("R1", ["A"])
    r2 = model.relation("R2", ["A"])
    with pytest.raises(SchemaError):
        licm_product(r1, r2)
    renamed = licm_rename(r2, {"A": "A2"})
    assert licm_product(r1, renamed).attributes == ("A", "A2")


def test_join_world_equivalence():
    model = LICMModel()
    trans = model.relation("T", ["TID", "Item"])
    items = model.relation("I", ["Item", "Price"])
    a, b = model.new_vars(2)
    trans.insert(("T1", "beer"), ext=a)
    trans.insert(("T2", "wine"))
    items.insert(("beer", 5), ext=b)
    items.insert(("wine", 9))
    result = licm_join(trans, items)
    assert result.attributes == ("TID", "Item", "Price")
    for assignment in all_valid_assignments(model):
        left = instantiate(trans, assignment)
        right = {r[0]: r for r in instantiate(items, assignment)}
        expected = {
            l + (right[l[1]][1],) for l in left if l[1] in right
        }
        assert set(instantiate(result, assignment)) == expected


def test_join_without_shared_attributes_is_product():
    model = LICMModel()
    r1 = model.relation("R1", ["A"])
    r2 = model.relation("R2", ["B"])
    r1.insert(("x",))
    r2.insert((1,))
    result = licm_join(r1, r2)
    assert result.attributes == ("A", "B")
    assert len(result) == 1


def test_join_only_materializes_matches():
    """Hash join must not create AND variables for non-matching pairs."""
    model = LICMModel()
    r1 = model.relation("R1", ["K", "A"])
    r2 = model.relation("R2", ["K", "B"])
    for i in range(5):
        r1.insert((i, f"a{i}"), ext=model.new_var())
        r2.insert((i + 100, f"b{i}"), ext=model.new_var())
    before = model.num_variables
    result = licm_join(r1, r2)
    assert len(result) == 0
    assert model.num_variables == before


# -- grouped intersection and the cached join index --------------------------
def _intersect_by_rescan(left, right):
    """Algorithm 2 as first written: every emitted value-tuple rescans the
    whole left input for its copies (quadratic in the left size)."""
    from collections import defaultdict

    from repro.core.operators import or_ext

    model = left.model
    right_by_values = defaultdict(list)
    for row in right.rows:
        right_by_values[row.values].append(row.ext)
    out = model.derived(left.attributes)
    emitted = set()
    for row in left.rows:
        matches = right_by_values.get(row.values)
        if not matches or row.values in emitted:
            continue
        emitted.add(row.values)
        left_copies = [r.ext for r in left.rows if r.values == row.values]
        left_ext = left_copies[0] if len(left_copies) == 1 else or_ext(model, left_copies)
        right_ext = matches[0] if len(matches) == 1 else or_ext(model, matches)
        out.insert(row.values, and_ext(model, left_ext, right_ext))
    return out


def _join_by_nested_loop(left, right):
    """⋈ as product + selection: every pair, in left-major order."""
    shared = [a for a in left.attributes if a in right.attributes]
    rest = [i for i, a in enumerate(right.attributes) if a not in shared]
    lkey, rkey = left.getter(shared), right.getter(shared)
    out = left.model.derived(
        tuple(left.attributes) + tuple(right.attributes[i] for i in rest)
    )
    for lrow in left.rows:
        for rrow in right.rows:
            if lkey(lrow) == rkey(rrow):
                values = lrow.values + tuple(rrow.values[i] for i in rest)
                out.insert(values, and_ext(left.model, lrow.ext, rrow.ext))
    return out


def _two_sides(spec, schemas):
    """One model holding a relation per schema, rows as drawn in ``spec``
    (each row: values, and -1 for certain or a variable number)."""
    model = LICMModel()
    model.new_vars(4)
    relations = []
    for name, attributes, rows in zip("LR", schemas, spec):
        relation = model.relation(name, attributes)
        for values, ext in rows:
            relation.insert(values, 1 if ext < 0 else model.pool.get(ext))
        relations.append(relation)
    return model, relations


def _dump(model, relation):
    rows = [(row.values, getattr(row.ext, "index", row.ext)) for row in relation.rows]
    return rows, [(c.terms, c.op, c.rhs) for c in model.constraints], dict(
        model.lineage_parents
    )


def _side(width):
    value = st.tuples(*[st.integers(0, 2)] * width)
    return st.lists(st.tuples(value, st.integers(-1, 3)), max_size=8)


@given(st.tuples(_side(2), _side(2)))
@settings(max_examples=150, deadline=None)
def test_grouped_intersection_equals_the_rescan(spec):
    schemas = (["A", "B"], ["A", "B"])
    model, (left, right) = _two_sides(spec, schemas)
    ref_model, (ref_left, ref_right) = _two_sides(spec, schemas)
    assert _dump(model, licm_intersect(left, right)) == _dump(
        ref_model, _intersect_by_rescan(ref_left, ref_right)
    )


@given(st.tuples(_side(2), _side(2)))
@settings(max_examples=150, deadline=None)
def test_join_equals_the_nested_loop(spec):
    schemas = (["A", "B"], ["B", "C"])
    model, (left, right) = _two_sides(spec, schemas)
    ref_model, (ref_left, ref_right) = _two_sides(spec, schemas)
    assert _dump(model, licm_join(left, right)) == _dump(
        ref_model, _join_by_nested_loop(ref_left, ref_right)
    )
    # A second join on the same attributes probes the index the first built.
    index = right.index((0,))
    licm_join(left, right)
    assert right.index((0,)) is index


def test_insert_drops_the_index_and_the_next_join_sees_the_new_row():
    model = LICMModel()
    left = model.relation("L", ["K", "X"])
    right = model.relation("R", ["K", "Y"])
    left.insert(("k1", "x"))
    right.insert_maybe(("k1", "y1"))
    first = right.index((0,))
    assert [row.values for row in licm_join(left, right).rows] == [("k1", "x", "y1")]
    assert right.index((0,)) is first
    right.insert(("k1", "y2"))
    joined = licm_join(left, right)
    assert [row.values for row in joined.rows] == [("k1", "x", "y1"), ("k1", "x", "y2")]
    assert right.index((0,)) is not first
    with pytest.raises(KeyError):
        right.index((0,))[("absent",)]  # a miss never grows the index


def test_scoped_evaluations_reuse_one_base_index_and_leave_the_model_flat():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries.licm_eval import evaluate_licm

    context = ExperimentContext(
        ExperimentConfig(num_transactions=60, num_items=24, k_values=(2,), seed=7)
    )
    try:
        encoded = context.encoding("km", 2).encoded
        model, transitem = encoded.model, encoded.relations["TRANSITEM"]
        plan = context.plan("Q1", encoded)
        before = model.stats()
        with model.scoped():
            first = evaluate_licm(plan, encoded.relations)
        indexes = dict(transitem._indexes)
        assert indexes  # Q1 joins the selected transactions with TRANSITEM
        with model.scoped():
            second = evaluate_licm(plan, encoded.relations)
        assert model.stats() == before
        assert transitem._indexes.keys() == indexes.keys()
        assert all(transitem._indexes[key] is index for key, index in indexes.items())
        assert first.coeffs == second.coeffs and first.constant == second.constant
    finally:
        context.close()


def test_index_built_while_rows_are_inserted_is_never_stale():
    """Readers building the index race one writer's inserts.  After each
    insert the writer's own lookup must see every row so far: a reader's
    build that missed the insert only ever lands in the cache the insert
    dropped, never in the one that replaced it."""
    import sys
    import threading
    import time

    class SlowRows(list):
        """Rows whose iteration ends by yielding the interpreter lock, so a
        build finishing its scan and then storing its index is interleaved
        with the writer's inserts."""

        def __iter__(self):
            yield from super().__iter__()
            time.sleep(0)

    model = LICMModel()
    relation = model.relation("R", ["K", "V"])
    relation.rows = SlowRows()
    done = threading.Event()
    stale = []

    def read():
        while not done.is_set():
            relation.index((0,))

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for value in range(600):
            relation.insert((value % 7, value))
            seen = sum(len(rows) for rows in relation.index((0,)).values())
            if seen != value + 1:
                stale.append((value + 1, seen))
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not stale
    assert [row.values[1] for row in relation.index((0,))[(3,)]] == list(range(3, 600, 7))
