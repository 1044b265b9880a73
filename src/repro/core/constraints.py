"""Linear constraints over binary variables and the store that holds them.

Definition 3 of the paper: an LICM database carries a set ``C`` of
constraints ``f(B) θ Z`` with ``θ ∈ {=, >=, <=}`` and integer ``Z``.  The
:class:`ConstraintStore` is the single shared ``C`` of a model; operators
append to it as they create lineage variables, and the pruning pass and the
solver read from it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView, Mapping, Tuple

from repro.core.linexpr import LinearExpr
from repro.errors import ConstraintError

_OPS = ("<=", ">=", "==")


class LinearConstraint:
    """An immutable constraint ``sum(coef * var) op rhs``.

    ``terms`` is a tuple of ``(coefficient, var_index)`` pairs sorted by
    variable index, with the expression's constant already folded into
    ``rhs``.  This normal form makes structural de-duplication and LP-file
    round-trips deterministic.
    """

    __slots__ = ("terms", "op", "rhs", "tag")

    def __init__(
        self,
        terms: Iterable[Tuple[int, int]],
        op: str,
        rhs: int,
        tag: str | None = None,
    ):
        if op not in _OPS:
            raise ConstraintError(f"unsupported operator {op!r}; expected one of {_OPS}")
        if not isinstance(rhs, int):
            raise ConstraintError("LICM constraints require integer right-hand sides")
        merged: dict[int, int] = {}
        for coef, index in terms:
            if not isinstance(coef, int):
                raise ConstraintError("LICM constraints require integer coefficients")
            merged[index] = merged.get(index, 0) + coef
        self.terms = tuple(
            (coef, index) for index, coef in sorted(merged.items()) if coef != 0
        )
        self.op = op
        self.rhs = rhs
        self.tag = tag

    @classmethod
    def from_exprs(cls, lhs: LinearExpr, op: str, rhs: LinearExpr) -> "LinearConstraint":
        """Build the normal form of ``lhs op rhs`` from two expressions."""
        diff = lhs - rhs
        return cls(
            [(coef, index) for index, coef in diff.coeffs.items()],
            op,
            -diff.constant,
        )

    # -- inspection --------------------------------------------------------
    @property
    def variables(self) -> Tuple[int, ...]:
        """Indices of the variables mentioned by this constraint."""
        return tuple(index for _, index in self.terms)

    def satisfied_by(self, assignment: Mapping[int, int]) -> bool:
        """Check the constraint under a (possibly partial) 0/1 assignment.

        Missing variables raise ``KeyError``: validity of a world is only
        defined for complete assignments (Definition 3).
        """
        lhs = sum(coef * assignment[index] for coef, index in self.terms)
        if self.op == "<=":
            return lhs <= self.rhs
        if self.op == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs

    def activity_bounds(self) -> Tuple[int, int]:
        """Min and max achievable LHS value over all 0/1 assignments."""
        lo = sum(coef for coef, _ in self.terms if coef < 0)
        hi = sum(coef for coef, _ in self.terms if coef > 0)
        return lo, hi

    def is_trivially_true(self) -> bool:
        """True if every 0/1 assignment satisfies the constraint."""
        lo, hi = self.activity_bounds()
        if self.op == "<=":
            return hi <= self.rhs
        if self.op == ">=":
            return lo >= self.rhs
        return lo == hi == self.rhs

    def is_trivially_false(self) -> bool:
        """True if no 0/1 assignment satisfies the constraint."""
        lo, hi = self.activity_bounds()
        if self.op == "<=":
            return lo > self.rhs
        if self.op == ">=":
            return hi < self.rhs
        return self.rhs < lo or self.rhs > hi

    def __repr__(self) -> str:
        parts = []
        for coef, index in self.terms:
            sign = "+" if coef >= 0 else "-"
            mag = "" if abs(coef) == 1 else f"{abs(coef)}*"
            parts.append(f"{sign} {mag}b[{index}]")
        lhs = " ".join(parts)
        lhs = lhs[2:] if lhs.startswith("+ ") else (lhs or "0")
        op = "=" if self.op == "==" else self.op
        return f"{lhs} {op} {self.rhs}"

    def __eq__(self, other) -> bool:
        if isinstance(other, LinearConstraint):
            return (self.terms, self.op, self.rhs) == (other.terms, other.op, other.rhs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms, self.op, self.rhs))


class ConstraintStore:
    """The ordered constraint set ``C`` of an LICM model.

    Order matters for the paper's single-pass pruning (Section V): lineage
    variables are created sequentially, so one backward sweep over the store
    finds everything reachable from the objective.
    """

    def __init__(self):
        self._constraints: list[LinearConstraint] = []
        # var index -> list of constraint positions mentioning it
        self._by_var: dict[int, list[int]] = {}
        # id(constraint) -> its position (the last one, if appended twice)
        self._position_of: dict[int, int] = {}
        # Monotone mutation counter; the engine's solve cache watches it
        # to invalidate entries when the store changes.  The store is
        # append-only, so it equals len(self) — kept explicit so the
        # invalidation contract survives future non-append mutations.
        self._generation = 0

    @property
    def generation(self) -> int:
        """Counter bumped by every mutation (cache-invalidation signal)."""
        return self._generation

    def add(self, constraint: LinearConstraint) -> None:
        """Append one constraint and index its variables."""
        if not isinstance(constraint, LinearConstraint):
            raise ConstraintError(
                f"expected LinearConstraint, got {type(constraint).__name__}; "
                "did you write 'b == x' (identity) instead of 'b.eq(x)'?"
            )
        position = len(self._constraints)
        self._constraints.append(constraint)
        self._generation += 1
        self._position_of[id(constraint)] = position
        for index in constraint.variables:
            self._by_var.setdefault(index, []).append(position)

    def extend(self, constraints: Iterable[LinearConstraint]) -> None:
        for constraint in constraints:
            self.add(constraint)

    def constraints_on(self, var_index: int) -> list[LinearConstraint]:
        """All constraints mentioning the given variable index."""
        return [self._constraints[pos] for pos in self._by_var.get(var_index, ())]

    def position(self, constraint: LinearConstraint) -> int:
        """Position of this constraint *object* in the store (the last
        one if it was appended more than once); ``KeyError`` if absent."""
        return self._position_of[id(constraint)]

    @property
    def variables(self) -> KeysView[int]:
        """Every variable index mentioned by some constraint (a live,
        read-only view: reading it costs nothing)."""
        return self._by_var.keys()

    def copy(self) -> "ConstraintStore":
        clone = ConstraintStore()
        clone._constraints = list(self._constraints)
        clone._by_var = {i: list(ps) for i, ps in self._by_var.items()}
        clone._position_of = dict(self._position_of)
        clone._generation = self._generation
        return clone

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[LinearConstraint]:
        return iter(self._constraints)

    def __getitem__(self, position: int) -> LinearConstraint:
        return self._constraints[position]
