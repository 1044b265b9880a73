"""Integer linear expressions over binary variables.

A :class:`LinearExpr` is an immutable map ``{var_index: coefficient}`` plus
an integer constant.  Expressions are what the paper writes on the left-hand
side of its constraints (``b1 + b2 + b3``) and as aggregate objectives
(``sum of Ext values``, ``sum of price * Ext``).
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.core.variables import BoolVar
from repro.errors import ConstraintError

Operand = Union["LinearExpr", BoolVar, int]


class LinearExpr:
    """An immutable integer-coefficient linear expression.

    Instances are created by arithmetic on :class:`BoolVar` objects or via
    :func:`linear_sum`; they should not normally be constructed directly.
    """

    __slots__ = ("coeffs", "constant", "pool_id")

    def __init__(self, coeffs: Mapping[int, int], constant: int = 0, pool_id: int | None = None):
        self.coeffs = {i: c for i, c in coeffs.items() if c != 0}
        self.constant = constant
        self.pool_id = pool_id

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _coerce(value: Operand) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, BoolVar):
            return LinearExpr({value.index: 1}, 0, pool_id=value.pool_id)
        if isinstance(value, (int,)):
            return LinearExpr({}, int(value))
        raise ConstraintError(f"cannot use {value!r} in a linear expression")

    def _merge_pool(self, other: "LinearExpr") -> int | None:
        if self.pool_id is None:
            return other.pool_id
        if other.pool_id is None or other.pool_id == self.pool_id:
            return self.pool_id
        raise ConstraintError("cannot mix variables from different models in one expression")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Operand) -> "LinearExpr":
        return linear_sum((self, other))

    __radd__ = __add__

    def __sub__(self, other: Operand) -> "LinearExpr":
        return self + (self._coerce(other) * -1)

    def __rsub__(self, other: Operand) -> "LinearExpr":
        return self._coerce(other) + (self * -1)

    def __mul__(self, scalar: int) -> "LinearExpr":
        if not isinstance(scalar, int):
            raise ConstraintError("LICM expressions only support integer coefficients")
        return LinearExpr(
            {i: c * scalar for i, c in self.coeffs.items()},
            self.constant * scalar,
            self.pool_id,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpr":
        return self * -1

    # -- evaluation --------------------------------------------------------
    def value(self, assignment: Mapping[int, int]) -> int:
        """Evaluate the expression under an assignment of variable indices."""
        return self.constant + sum(c * assignment[i] for i, c in self.coeffs.items())

    # -- comparisons build constraints --------------------------------------
    def __le__(self, other: Operand):
        from repro.core.constraints import LinearConstraint

        return LinearConstraint.from_exprs(self, "<=", self._coerce(other))

    def __ge__(self, other: Operand):
        from repro.core.constraints import LinearConstraint

        return LinearConstraint.from_exprs(self, ">=", self._coerce(other))

    def eq(self, other: Operand):
        """Build an equality constraint ``self == other``."""
        from repro.core.constraints import LinearConstraint

        return LinearConstraint.from_exprs(self, "==", self._coerce(other))

    def __repr__(self) -> str:
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*b[{i}]")
        if self.constant or not parts:
            parts.append(f"{'+' if self.constant >= 0 else '-'} {abs(self.constant)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def linear_sum(operands) -> LinearExpr:
    """Sum a sequence of variables / expressions / ints into one expression.

    Accepts the mixed ``Ext`` column of an LICM relation directly, which is
    how aggregate objectives are formed (certain tuples contribute their
    constant 1, maybe-tuples contribute their variable).  Linear time: one
    dict accumulates every term, in order of first appearance.
    """
    total = LinearExpr({}, 0)
    coeffs = total.coeffs
    for op in operands:
        expr = LinearExpr._coerce(op)
        total.pool_id = total._merge_pool(expr)
        total.constant += expr.constant
        for index, coef in expr.coeffs.items():
            coef += coeffs.get(index, 0)
            if coef:
                coeffs[index] = coef
            else:
                del coeffs[index]
    return total
