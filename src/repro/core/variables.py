"""Binary existence variables and the pool that owns them.

Every maybe-tuple in an LICM relation carries a :class:`BoolVar` in its
``Ext`` attribute (Definition 2 of the paper).  Variables are created by a
:class:`VariablePool`, which assigns them dense integer indices; the solver
stack and the pruning pass address variables purely by index, so all other
structures (constraints, objectives, assignments) are small integer maps.

Variables support arithmetic (``b1 + b2 - 1``, ``3 * b``) producing
:class:`~repro.core.linexpr.LinearExpr` objects, and comparisons producing
:class:`~repro.core.constraints.LinearConstraint` objects, so constraints can
be written the way the paper writes them::

    model.add(b1 + b2 + b3 >= 1)
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class BoolVar:
    """A binary {0, 1} decision variable.

    Instances are created through :meth:`VariablePool.new`; they are
    hashable, compared by identity of ``(pool_id, index)``, and usable
    directly in linear expressions.
    """

    __slots__ = ("index", "name", "pool_id")

    def __init__(self, index: int, name: str, pool_id: int):
        self.index = index
        self.name = name
        self.pool_id = pool_id

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash((self.pool_id, self.index))

    def __eq__(self, other) -> bool:
        if isinstance(other, BoolVar):
            return self.pool_id == other.pool_id and self.index == other.index
        return NotImplemented

    # -- arithmetic: delegate to LinearExpr -------------------------------
    def _expr(self):
        from repro.core.linexpr import LinearExpr

        return LinearExpr({self.index: 1}, 0, pool_id=self.pool_id)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1 * self._expr()) + other

    def __mul__(self, other):
        return self._expr() * other

    __rmul__ = __mul__

    def __neg__(self):
        return -1 * self._expr()

    # -- comparisons: build constraints -----------------------------------
    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def eq(self, other):
        """Build an equality constraint (``==`` is reserved for identity)."""
        return self._expr().eq(other)


class VariablePool:
    """Factory and registry for the binary variables of one LICM model.

    The pool assigns dense indices ``0..n-1`` so that solver vectors and
    assignments can be plain arrays.  Auto-generated names follow the
    paper's ``b1, b2, ...`` convention.
    """

    _next_pool_id = 0

    def __init__(self):
        self._vars: list[BoolVar] = []
        self.pool_id = VariablePool._next_pool_id
        VariablePool._next_pool_id += 1

    def new(self, name: Optional[str] = None) -> BoolVar:
        """Create a fresh binary variable.

        :param name: optional human-readable name; defaults to ``b<k>``
            with ``k`` counting from 1 as in the paper's figures.
        """
        index = len(self._vars)
        if name is None:
            name = f"b{index + 1}"
        var = BoolVar(index, name, self.pool_id)
        self._vars.append(var)
        return var

    def new_many(self, count: int, prefix: str = "b") -> list[BoolVar]:
        """Create ``count`` fresh variables named ``<prefix><k>``."""
        start = len(self._vars)
        return [self.new(f"{prefix}{start + i + 1}") for i in range(count)]

    def get(self, index: int) -> BoolVar:
        """Return the variable with the given dense index."""
        return self._vars[index]

    def names(self, indices: Iterable[int]) -> dict[int, str]:
        """``{index: name}`` for every given index the pool holds."""
        variables = self._vars
        size = len(variables)
        return {index: variables[index].name for index in indices if index < size}

    def truncate(self, length: int) -> None:
        """Drop every variable created after the first ``length``."""
        del self._vars[length:]

    def __len__(self) -> int:
        return len(self._vars)

    def __iter__(self) -> Iterator[BoolVar]:
        return iter(self._vars)

    def __contains__(self, var: BoolVar) -> bool:
        return (
            isinstance(var, BoolVar)
            and var.pool_id == self.pool_id
            and 0 <= var.index < len(self._vars)
        )
