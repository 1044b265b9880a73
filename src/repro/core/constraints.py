"""Linear constraints over binary variables and the store that holds them.

Definition 3 of the paper: an LICM database carries a set ``C`` of
constraints ``f(B) θ Z`` with ``θ ∈ {=, >=, <=}`` and integer ``Z``.  The
:class:`ConstraintStore` is the single shared ``C`` of a model; operators
append to it as they create lineage variables, and the pruning pass and the
solver read from it.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterable, Iterator, KeysView, Mapping, Optional, Sequence, Tuple

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
    def normal(cls, terms: Tuple[Tuple[int, int], ...], op: str, rhs: int) -> "LinearConstraint":
        """A row whose ``terms`` are already in normal form: a tuple of
        ``(coefficient, var_index)`` pairs with non-zero integer
        coefficients and strictly ascending indices, ``op`` one of
        ``<=``/``>=``/``==`` and an integer ``rhs``.  Nothing is checked
        or merged: this is the operators' lineage path, which writes a
        fresh variable (the newest index, so last) next to its parents."""
        row = object.__new__(cls)
        row.terms = terms
        row.op = op
        row.rhs = rhs
        row.tag = None
        return row

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
        return tuple([index for _, index in self.terms])

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
        # id(constraint) -> its position (the last one, if appended twice;
        # re-appending inside a scope keeps the earlier one)
        self._position_of: dict[int, int] = {}
        # Counts appends outside :meth:`scoped` (those inside are rolled
        # back); the engine's caches watch it to invalidate their entries.
        self._generation = 0
        self._scope_length: Optional[int] = None  # store length at scope entry

    @property
    def generation(self) -> int:
        """Counter bumped by every append outside a scope (the
        cache-invalidation signal)."""
        return self._generation

    def add(self, constraint: LinearConstraint) -> None:
        """Append one constraint and index its variables."""
        self.extend((constraint,))

    def extend(self, constraints: Iterable[LinearConstraint]) -> None:
        """Append constraints in order and index their variables."""
        rows, by_var, position_of = self._constraints, self._by_var, self._position_of
        scoped = self._scope_length is not None
        for constraint in constraints:
            if not isinstance(constraint, LinearConstraint):
                raise ConstraintError(
                    f"expected LinearConstraint, got {type(constraint).__name__}; "
                    "did you write 'b == x' (identity) instead of 'b.eq(x)'?"
                )
            position = len(rows)
            rows.append(constraint)
            if scoped:
                position_of.setdefault(id(constraint), position)
            else:
                self._generation += 1
                position_of[id(constraint)] = position
            for _, index in constraint.terms:
                positions = by_var.get(index)
                if positions is None:
                    by_var[index] = [position]
                else:
                    positions.append(position)

    @contextmanager
    def scoped(self) -> Iterator[None]:
        """Roll back every append made inside the block when it exits,
        normally or by exception: the constraint list and both indexes
        return to their state at entry, and ``generation`` never moves.
        Scopes do not nest."""
        if self._scope_length is not None:
            raise ConstraintError("constraint store scopes do not nest")
        self._scope_length = length = len(self._constraints)
        try:
            yield
        finally:
            appended = self._constraints[length:]
            del self._constraints[length:]
            touched = {index for constraint in appended for _, index in constraint.terms}
            for index in touched:
                positions = self._by_var[index]
                # Positions are ascending: the scope's are a suffix.
                del positions[bisect_left(positions, length):]
                if not positions:
                    del self._by_var[index]
            for constraint in appended:
                if self._position_of.get(id(constraint), -1) >= length:
                    del self._position_of[id(constraint)]
            self._scope_length = None

    def constraints_on(self, var_index: int) -> list[LinearConstraint]:
        """All constraints mentioning the given variable index."""
        return [self._constraints[pos] for pos in self._by_var.get(var_index, ())]

    def positions_on(self, var_index: int) -> Sequence[int]:
        """Ascending store positions of the constraints mentioning the
        variable: the store's own list, so read it, never mutate it."""
        return self._by_var.get(var_index, ())

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
