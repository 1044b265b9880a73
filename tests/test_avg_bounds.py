"""AVG bounds via Dinkelbach iteration, cross-checked against brute force."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import correlations
from repro.core.bounds import avg_bounds
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.core.worlds import enumerate_assignments, instantiate, instantiate_world
from repro.errors import QueryError
from helpers import all_valid_assignments, fig2c_model


def _brute_force_avg_range(model, relation, attribute):
    position = relation.position(attribute)
    ratios = []
    for assignment in all_valid_assignments(model):
        rows = set(instantiate(relation, assignment))
        if rows:
            values = [row[position] for row in rows]
            ratios.append(Fraction(sum(values), len(values)))
    return (min(ratios), max(ratios)) if ratios else (None, None)


def test_avg_mutually_exclusive():
    model = LICMModel()
    rel = model.relation("R", ["V"])
    a, b = model.new_vars(2)
    rel.insert((10,), ext=a)
    rel.insert((2,), ext=b)
    rel.insert((6,))
    model.add_all(correlations.mutually_exclusive(a, b))
    bounds = avg_bounds(rel, "V")
    expected = _brute_force_avg_range(model, rel, "V")
    assert (bounds.lower, bounds.upper) == expected == (Fraction(4), Fraction(8))


def test_avg_with_prices():
    """AVG over the priced Figure 2(c) items."""
    model, trans, _ = fig2c_model()
    prices = {"Beer": 6, "Wine": 9, "Liquor": 12, "Shampoo": 3}
    priced = model.derived(["Item", "Price"])
    for row in trans.rows:
        priced.insert((row.values[1], prices[row.values[1]]), row.ext)
    bounds = avg_bounds(priced, "Price")
    expected = _brute_force_avg_range(model, priced, "Price")
    assert (bounds.lower, bounds.upper) == expected


def test_avg_exact_on_certain_relation():
    model = LICMModel()
    rel = model.relation("R", ["V"])
    rel.insert((4,))
    rel.insert((8,))
    bounds = avg_bounds(rel, "V")
    assert bounds.lower == bounds.upper == Fraction(6)


def test_avg_fractional_result():
    model = LICMModel()
    rel = model.relation("R", ["V"])
    var = model.new_var()
    rel.insert((1,))
    rel.insert((2,), ext=var)
    bounds = avg_bounds(rel, "V")
    # worlds: {1} -> 1, {1, 2} -> 3/2
    assert bounds.lower == Fraction(1)
    assert bounds.upper == Fraction(3, 2)


def test_avg_empty_relation():
    model = LICMModel()
    rel = model.relation("R", ["V"])
    bounds = avg_bounds(rel, "V")
    assert bounds.lower is None and bounds.upper is None


def test_avg_requires_integers():
    model = LICMModel()
    rel = model.relation("R", ["V"])
    rel.insert(("text",))
    with pytest.raises(QueryError):
        avg_bounds(rel, "V")


def test_avg_random_correlated_cross_check():
    import random

    rng = random.Random(6)
    for trial in range(5):
        model = LICMModel()
        rel = model.relation("R", ["V"])
        variables = []
        for i in range(6):
            value = rng.randint(-5, 10)
            if rng.random() < 0.3:
                rel.insert((value,))
            else:
                row = rel.insert_maybe((value,))
                variables.append(row.ext)
        if len(variables) >= 2:
            model.add_all(correlations.at_most(variables, len(variables) - 1))
        bounds = avg_bounds(rel, "V")
        expected = _brute_force_avg_range(model, rel, "V")
        assert (bounds.lower, bounds.upper) == expected, trial


_ROW = st.tuples(st.integers(0, 2), st.integers(-3, 6), st.one_of(st.none(), st.integers(0, 4)))
_CARDINALITY = st.tuples(
    st.sets(st.integers(0, 4), min_size=1, max_size=4),
    st.sampled_from(("<=", ">=", "==")),
    st.integers(0, 3),
)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=1, max_size=7),
    constraints=st.lists(_CARDINALITY, max_size=3),
)
def test_avg_matches_world_enumeration(rows, constraints):
    """Random enumerable relations R(K, V): certain rows (``None``), maybe
    rows sharing variables, duplicate tuples, and worlds — possibly all of
    them — where the relation is empty."""
    model = LICMModel()
    variables = model.new_vars(5)
    relation = model.relation("R", ["K", "V"])
    for key, value, var in rows:
        relation.insert((key, value), ext=1 if var is None else variables[var])
    for scope, op, rhs in constraints:
        expr = linear_sum(variables[i] for i in scope)
        model.add({"<=": expr.__le__, ">=": expr.__ge__, "==": expr.eq}[op](rhs))
    assignments = list(enumerate_assignments(model.constraints, range(len(model.pool))))
    assume(assignments)  # pruning ignores an inconsistency the relation never touches
    ratios = set()
    for assignment in assignments:
        world = instantiate_world(relation, assignment)
        if world:
            ratios.add(Fraction(sum(v for _, v in world), len(world)))
    expected = (min(ratios), max(ratios)) if ratios else (None, None)
    bounds = avg_bounds(relation, "V")
    assert (bounds.lower, bounds.upper) == expected
