"""Unit tests for LinearConstraint normalization and ConstraintStore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintStore, LinearConstraint
from repro.core.variables import VariablePool
from repro.errors import ConstraintError


@pytest.fixture
def pool():
    return VariablePool()


def test_normal_form_folds_constant(pool):
    a, b = pool.new(), pool.new()
    constraint = a + b + 3 <= 5
    assert constraint.terms == ((1, a.index), (1, b.index))
    assert constraint.rhs == 2


def test_duplicate_terms_merged():
    constraint = LinearConstraint([(1, 0), (2, 0), (1, 1)], "<=", 4)
    assert constraint.terms == ((3, 0), (1, 1))


def test_zero_coefficient_dropped():
    constraint = LinearConstraint([(1, 0), (-1, 0)], ">=", 0)
    assert constraint.terms == ()


def test_bad_operator_rejected():
    with pytest.raises(ConstraintError):
        LinearConstraint([(1, 0)], "<", 1)


def test_non_integer_rhs_rejected():
    with pytest.raises(ConstraintError):
        LinearConstraint([(1, 0)], "<=", 1.5)


def test_satisfied_by(pool):
    a, b = pool.new(), pool.new()
    constraint = a + b >= 1
    assert constraint.satisfied_by({a.index: 1, b.index: 0})
    assert not constraint.satisfied_by({a.index: 0, b.index: 0})
    equality = (a + b).eq(1)
    assert equality.satisfied_by({a.index: 0, b.index: 1})
    assert not equality.satisfied_by({a.index: 1, b.index: 1})


def test_activity_bounds_and_trivialities():
    constraint = LinearConstraint([(2, 0), (-1, 1)], "<=", 5)
    assert constraint.activity_bounds() == (-1, 2)
    assert constraint.is_trivially_true()
    assert not constraint.is_trivially_false()
    impossible = LinearConstraint([(1, 0)], ">=", 2)
    assert impossible.is_trivially_false()


def test_constraint_equality_and_hash(pool):
    a, b = pool.new(), pool.new()
    c1 = a + b <= 1
    c2 = b + a <= 1
    assert c1 == c2
    assert hash(c1) == hash(c2)


def test_repr_round_readability(pool):
    a, b = pool.new(), pool.new()
    assert "b[0]" in repr(a + 2 * b <= 3)


def test_store_indexes_by_variable(pool):
    a, b, c = pool.new(), pool.new(), pool.new()
    store = ConstraintStore()
    store.add(a + b >= 1)
    store.add(b + c <= 1)
    assert len(store) == 2
    assert len(store.constraints_on(b.index)) == 2
    assert len(store.constraints_on(a.index)) == 1
    assert store.constraints_on(99) == []


def test_store_rejects_non_constraints():
    store = ConstraintStore()
    with pytest.raises(ConstraintError):
        store.add(True)  # the classic 'b == x' identity mistake


def test_store_copy_is_independent(pool):
    a = pool.new()
    store = ConstraintStore()
    store.add(a >= 1)
    clone = store.copy()
    clone.add(a <= 0)
    assert len(store) == 1
    assert len(clone) == 2


def test_store_preserves_order(pool):
    a, b = pool.new(), pool.new()
    first = a >= 0
    second = b >= 0
    store = ConstraintStore()
    store.extend([first, second])
    assert store[0] == first
    assert store[1] == second
    assert list(store) == [first, second]


def _state(store):
    return (
        [id(c) for c in store._constraints],
        store._by_var,
        store._position_of,
        store.generation,
    )


_ROWS = st.lists(
    st.tuples(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(-1, 2)),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(before=_ROWS, inside=_ROWS, at=st.integers(0, 12))
def test_scope_rolls_back_to_the_entry_state(before, inside, at):
    """After a scope of random appends the store equals a copy taken at
    entry, including a constraint object appended before the scope and
    again inside it, and one appended twice inside it."""
    pool = VariablePool()
    variables = [pool.new() for _ in range(8)]

    def row(indices, rhs):
        return LinearConstraint([(1, variables[i].index) for i in indices], "<=", rhs)

    store = ConstraintStore()
    shared = row([2, 5], 1)
    store.extend([row(*spec) for spec in before] + [shared])
    entry = store.copy()
    appends = [row(*spec) for spec in inside]
    appends.insert(min(at, len(appends)), shared)
    twice = row([0, 1], 1)
    with store.scoped():
        for constraint in appends + [twice, twice]:
            store.add(constraint)
    assert _state(store) == _state(entry)
