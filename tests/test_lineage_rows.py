"""The LICM operators' lineage rows equal the expression-built ones.

``and_ext``, ``or_ext``, ``licm_difference`` and the ``COUNT θ d`` kernels
write their constraints directly as ``LinearConstraint`` rows.  The
references below build the same lineage with ``LinearExpr`` arithmetic, the
way the paper writes it; on random Ext inputs both must append the same
rows (``terms``, ``op``, ``rhs``) in the same store order, return the same
Ext values and register the same lineage.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.count_predicate import _ge_ext, _le_ext
from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.core.operators import and_ext, licm_difference, or_ext
from repro.core.relation import is_certain
from repro.core.variables import BoolVar
from repro.errors import ConstraintError


# -- references: the lineage written with expression arithmetic ------------
def ref_and_ext(model, left, right):
    if is_certain(left):
        return right
    if is_certain(right):
        return left
    if left == right:
        return left
    b = model.new_var()
    constraints = [
        model.add(b - left <= 0),
        model.add(b - right <= 0),
        model.add(b - left - right >= -1),
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
    constraints = [model.add(b - var >= 0) for var in variables]
    constraints.append(model.add(b - linear_sum(variables) <= 0))
    model.register_lineage(b, variables, constraints)
    return b


def ref_le_ext(model, variables, n, d):
    m = len(variables)
    if m + n <= d:
        return 1
    if n > d:
        return None
    b = model.new_var()
    total = linear_sum(variables)
    constraints = [
        model.add((d - n + 1) * b + total >= d - n + 1),
        model.add((m - d + n) * b + total <= m),
    ]
    model.register_lineage(b, variables, constraints)
    return b


def ref_ge_ext(model, variables, n, d):
    m = len(variables)
    if n >= d:
        return 1
    if m + n < d:
        return None
    b = model.new_var()
    total = linear_sum(variables)
    constraints = [
        model.add((d - n) * b - total <= 0),
        model.add((m - d + n + 1) * b - total >= -(d - n - 1)),
    ]
    model.register_lineage(b, variables, constraints)
    return b


def _ref_dedup(model, relation):
    groups = defaultdict(list)
    for row in relation.rows:
        groups[row.values].append(row.ext)
    out = model.derived(relation.attributes)
    for values, exts in groups.items():
        out.insert(values, ref_or_ext(model, exts))
    return out


def ref_difference(left, right):
    model = left.model
    right_groups = defaultdict(list)
    for row in right.rows:
        right_groups[row.values].append(row.ext)
    out = model.derived(left.attributes)
    for row in _ref_dedup(model, left).rows:
        matches = right_groups.get(row.values)
        if not matches:
            out.insert(row.values, row.ext)
            continue
        right_ext = matches[0] if len(matches) == 1 else ref_or_ext(model, matches)
        if is_certain(right_ext):
            continue
        if is_certain(row.ext):
            b = model.new_var()
            constraints = [model.add((b + right_ext).eq(1))]
            model.register_lineage(b, [right_ext], constraints)
            out.insert(row.values, b)
            continue
        b = model.new_var()
        constraints = [
            model.add(b - row.ext <= 0),
            model.add(b + right_ext <= 1),
            model.add(b - row.ext + right_ext >= 0),
        ]
        model.register_lineage(b, [row.ext, right_ext], constraints)
        out.insert(row.values, b)
    return out


DIRECT = {
    "and": and_ext, "or": or_ext, "le": _le_ext, "ge": _ge_ext, "diff": licm_difference,
}
REFERENCE = {
    "and": ref_and_ext, "or": ref_or_ext, "le": ref_le_ext, "ge": ref_ge_ext,
    "diff": ref_difference,
}


# -- driving both implementations over one random operation sequence -------
def _key(ext):
    return ext.index if isinstance(ext, BoolVar) else ext


def _rows(constraints):
    return [(c.terms, c.op, c.rhs) for c in constraints]


def _run(ops, base_vars, kernels):
    """Apply ``ops`` to a fresh model with ``kernels``; return its outputs."""
    model = LICMModel()
    model.new_vars(base_vars)
    outputs = []
    for kind, args, extra_n, d in ops:
        # -1 is a certain Ext; any other arg picks a variable created so far
        # (base or derived), so duplicates and chains both occur.
        exts = [1 if a < 0 else model.pool.get(a % len(model.pool)) for a in args]
        variables = [e for e in exts if isinstance(e, BoolVar)]
        n = len(exts) - len(variables) + extra_n
        if kind == "and":
            outputs.append(_key(kernels["and"](model, exts[0], exts[-1])))
        elif kind == "or":
            outputs.append(_key(kernels["or"](model, exts)))
        elif kind in ("le", "ge"):
            outputs.append(_key(kernels[kind](model, variables, n, d)))
        elif kind == "eq":  # licm_having_count's COUNT == d
            le = kernels["le"](model, variables, n, d)
            ge = kernels["ge"](model, variables, n, d)
            both = None if le is None or ge is None else kernels["and"](model, le, ge)
            outputs.append(_key(both))
        else:  # diff: alternate args between the sides, values in {0, 1}
            left = model.derived(["V"])
            right = model.derived(["V"])
            for position, ext in enumerate(exts):
                (left if position % 2 == 0 else right).insert(((position // 2) % 2,), ext)
            out = kernels["diff"](left, right)
            outputs.append([(row.values, _key(row.ext)) for row in out.rows])
    return model, outputs


def _lineage(model):
    return (
        dict(model.lineage_parents),
        {index: _rows(cs) for index, cs in model.lineage_constraints.items()},
        [model.is_lineage_constraint(c) for c in model.constraints],
    )


operation = st.tuples(
    st.sampled_from(["and", "or", "le", "ge", "eq", "diff"]),
    st.lists(st.integers(-1, 40), min_size=1, max_size=6),
    st.integers(0, 2),  # extra certain members of a COUNT group
    st.integers(0, 6),  # the COUNT threshold d
)


@given(st.integers(1, 6), st.lists(operation, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_direct_rows_equal_expression_rows(base_vars, ops):
    direct_model, direct_out = _run(ops, base_vars, DIRECT)
    ref_model, ref_out = _run(ops, base_vars, REFERENCE)
    assert direct_out == ref_out
    assert _rows(direct_model.constraints) == _rows(ref_model.constraints)
    assert len(direct_model.pool) == len(ref_model.pool)
    assert _lineage(direct_model) == _lineage(ref_model)


@pytest.mark.parametrize("d", range(0, 6))
@pytest.mark.parametrize("n", range(0, 3))
def test_count_kernels_cover_every_case(n, d):
    """Every branch of COUNT <= d and COUNT >= d (certain, excluded, new
    variable) over three maybe members, one of them repeated."""
    ops = [(kind, [0, 1, 2, 2], n, d) for kind in ("le", "ge", "eq")]
    direct_model, direct_out = _run(ops, 3, DIRECT)
    ref_model, ref_out = _run(ops, 3, REFERENCE)
    assert direct_out == ref_out
    assert _rows(direct_model.constraints) == _rows(ref_model.constraints)
    assert _lineage(direct_model) == _lineage(ref_model)


# -- mixing two models' variables -------------------------------------------
def test_mixing_two_models_variables_raises():
    model, other = LICMModel(), LICMModel()
    mine, theirs = model.new_var(), other.new_var()
    with pytest.raises(ConstraintError, match="different models"):
        and_ext(model, mine, theirs)
    with pytest.raises(ConstraintError, match="different models"):
        or_ext(model, [mine, theirs])
    with pytest.raises(ConstraintError, match="different models"):
        _le_ext(model, [mine, theirs], 0, 1)
    with pytest.raises(ConstraintError, match="different models"):
        _ge_ext(model, [theirs], 0, 1)
    left, right = model.derived(["V"]), model.derived(["V"])
    left.insert((0,), mine)
    right.insert((0,), theirs)  # a relation of this model holding a foreign variable
    with pytest.raises(ConstraintError, match="different models"):
        licm_difference(left, right)
    # The expression-built rows raise the same error.
    with pytest.raises(ConstraintError, match="different models"):
        ref_and_ext(model, mine, theirs)
