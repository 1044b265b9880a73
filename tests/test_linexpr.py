"""Unit tests for LinearExpr arithmetic and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linexpr import LinearExpr, linear_sum
from repro.core.variables import VariablePool
from repro.errors import ConstraintError


@pytest.fixture
def pool():
    return VariablePool()


def test_zero_coefficients_dropped(pool):
    a = pool.new()
    expr = a - a
    assert expr.coeffs == {}
    assert expr.constant == 0


def test_addition_merges_terms(pool):
    a, b = pool.new(), pool.new()
    expr = (a + b) + (a + 3)
    assert expr.coeffs == {a.index: 2, b.index: 1}
    assert expr.constant == 3


def test_subtraction(pool):
    a, b = pool.new(), pool.new()
    expr = (2 * a + 5) - (b + 1)
    assert expr.coeffs == {a.index: 2, b.index: -1}
    assert expr.constant == 4


def test_scalar_multiplication_distributes(pool):
    a = pool.new()
    expr = 3 * (a + 2)
    assert expr.coeffs == {a.index: 3}
    assert expr.constant == 6


def test_non_integer_coefficient_rejected(pool):
    a = pool.new()
    with pytest.raises(ConstraintError):
        _ = a * 0.5


def test_float_operand_rejected(pool):
    a = pool.new()
    with pytest.raises(ConstraintError):
        _ = a + 0.5


def test_value_evaluation(pool):
    a, b = pool.new(), pool.new()
    expr = 2 * a - b + 7
    assert expr.value({a.index: 1, b.index: 0}) == 9
    assert expr.value({a.index: 0, b.index: 1}) == 6


def test_linear_sum_mixed_operands(pool):
    a, b = pool.new(), pool.new()
    expr = linear_sum([a, 1, b, 1])
    assert expr.coeffs == {a.index: 1, b.index: 1}
    assert expr.constant == 2


def test_linear_sum_empty():
    expr = linear_sum([])
    assert expr.coeffs == {} and expr.constant == 0


def test_repr_is_readable(pool):
    a, b = pool.new(), pool.new()
    text = repr(a - 2 * b + 1)
    assert "b[0]" in text and "b[1]" in text


# -- linear_sum equals the dict-copying left fold ---------------------------
POOLS = (VariablePool(), VariablePool())
VARS = tuple(tuple(pool.new() for _ in range(4)) for pool in POOLS)


@st.composite
def operands(draw):
    """Variables, ints and expressions (negated ones included, so terms
    cancel), from one pool or — with ``mixed`` — from both."""
    mixed = draw(st.booleans())
    pools = (0, 1) if mixed else (draw(st.sampled_from((0, 1))),)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        pool = draw(st.sampled_from(pools))
        kind = draw(st.sampled_from(("var", "int", "expr", "const")))
        if kind == "var":
            ops.append(draw(st.sampled_from(VARS[pool])))
        elif kind == "int":
            ops.append(draw(st.integers(-3, 3)))
        elif kind == "const":
            ops.append(LinearExpr({}, draw(st.integers(-3, 3))))
        else:
            terms = draw(
                st.dictionaries(st.sampled_from(VARS[pool]), st.integers(-2, 2), max_size=3)
            )
            expr = LinearExpr({}, draw(st.integers(-3, 3)))
            for var, coef in terms.items():
                expr = expr + coef * var
            ops.append(expr)
    return ops


def _fold(ops) -> LinearExpr:
    """The reference: a left fold that copies the growing dict per term
    and drops zeros after every step, as ``+`` always has."""
    coeffs, constant, pool_id = {}, 0, None
    for op in ops:
        expr = LinearExpr._coerce(op)
        if pool_id is None:
            pool_id = expr.pool_id
        elif expr.pool_id not in (None, pool_id):
            raise ConstraintError("mixed pools")
        merged = dict(coeffs)
        for index, coef in expr.coeffs.items():
            merged[index] = merged.get(index, 0) + coef
        coeffs = {index: coef for index, coef in merged.items() if coef != 0}
        constant += expr.constant
    return LinearExpr(coeffs, constant, pool_id)


@given(operands())
@settings(max_examples=300, deadline=None)
def test_linear_sum_equals_the_fold(ops):
    try:
        want = _fold(ops)
    except ConstraintError:
        with pytest.raises(ConstraintError):
            linear_sum(ops)
        return
    got = linear_sum(ops)
    assert list(got.coeffs.items()) == list(want.coeffs.items())  # order too
    assert got.constant == want.constant
    assert got.pool_id == want.pool_id


def test_linear_sum_cancels_and_rejects_mixed_pools():
    a, b = VARS[0][:2]
    expr = linear_sum([a, b, -1 * a, 2])
    assert expr.coeffs == {b.index: 1} and expr.constant == 2
    assert expr.pool_id == POOLS[0].pool_id
    with pytest.raises(ConstraintError):
        linear_sum([a, VARS[1][0]])
