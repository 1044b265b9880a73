"""The LICM model/database: shared variable pool + constraint store + relations.

Definition 3 of the paper: an LICM database is a pair ``(R, C)`` of a set of
LICM relations and a set of linear constraints over the binary variables
appearing in them.  :class:`LICMModel` is that pair plus the variable pool;
query operators run against one model, appending lineage variables and
constraints as they go, which is exactly how the paper integrates
representation, query answering and lineage.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.core.constraints import ConstraintStore, LinearConstraint
from repro.core.relation import LICMRelation
from repro.core.variables import BoolVar, VariablePool
from repro.errors import ModelError


class LICMModel:
    """One uncertain database: relations + binary variables + constraints."""

    def __init__(self):
        self.pool = VariablePool()
        self.constraints = ConstraintStore()
        self.relations: dict[str, LICMRelation] = {}
        self._anon_counter = 0
        # Lineage registry (filled by the operators): for each derived
        # variable, the constraints that define it and the variables it was
        # derived from.  Constraints in this registry are *deterministic*
        # (the derived value is a function of its parents), which is what
        # licenses lineage-directed pruning to drop sibling queries'
        # lineage from a shared model.
        self.lineage_parents: dict[int, list[int]] = {}
        self.lineage_constraints: dict[int, list] = {}
        self._lineage_constraint_ids: set[int] = set()

    # -- variables ---------------------------------------------------------
    def new_var(self, name: str | None = None) -> BoolVar:
        """Create a fresh binary existence variable."""
        return self.pool.new(name)

    def new_vars(self, count: int, prefix: str = "b") -> list[BoolVar]:
        return self.pool.new_many(count, prefix)

    # -- constraints -------------------------------------------------------
    def add(self, constraint: LinearConstraint) -> LinearConstraint:
        """Add one constraint to the shared store and return it."""
        self.constraints.add(constraint)
        return constraint

    def add_all(self, constraints: Iterable[LinearConstraint]) -> None:
        self.constraints.extend(constraints)

    # -- relations ---------------------------------------------------------
    def relation(self, name: str, attributes: Sequence[str]) -> LICMRelation:
        """Create and register a named base relation."""
        if name in self.relations:
            raise ModelError(f"relation {name!r} already exists in this model")
        rel = LICMRelation(name, attributes, self)
        self.relations[name] = rel
        return rel

    def derived(self, attributes: Sequence[str], name: str | None = None) -> LICMRelation:
        """Create an unregistered intermediate relation (operator output)."""
        if name is None:
            self._anon_counter += 1
            name = f"_derived{self._anon_counter}"
        return LICMRelation(name, attributes, self)

    def check_owns(self, relation: LICMRelation) -> None:
        """Raise if a relation belongs to a different model.

        Operators combine constraint sets through the shared store, which is
        only sound when both inputs live in the same model.
        """
        if relation.model is not self:
            raise ModelError(
                f"relation {relation.name!r} belongs to a different LICM model; "
                "operators require both inputs in the same model"
            )

    # -- lineage -----------------------------------------------------------
    def register_lineage(self, derived: BoolVar, parents, constraints) -> None:
        """Record that ``derived`` is defined by ``constraints`` over
        ``parents``.  Called by the LICM operators for every variable they
        create; the constraints must determine the derived variable
        uniquely given any assignment of the parents."""
        self.lineage_parents[derived.index] = [p.index for p in parents]
        self.lineage_constraints[derived.index] = list(constraints)
        self._lineage_constraint_ids.update(map(id, constraints))

    def add_lineage(self, derived: BoolVar, parents, constraints) -> None:
        """Append an operator's lineage rows to the store, in order, and
        register them (:meth:`register_lineage`)."""
        self.constraints.extend(constraints)
        self.register_lineage(derived, parents, constraints)

    def is_lineage_constraint(self, constraint) -> bool:
        """Was this constraint registered as operator lineage?"""
        return id(constraint) in self._lineage_constraint_ids

    # -- query scopes ------------------------------------------------------
    @contextmanager
    def scoped(self) -> Iterator["LICMModel"]:
        """One query's lineage, rolled back on exit (normal or by exception).

        The pool, the constraint store and the lineage registry return to
        their state at entry; in-scope appends never move
        ``constraints.generation``, so it counts base changes only.  What
        is built inside must not be used after: its indices are reused.
        Scopes do not nest (:class:`~repro.errors.ConstraintError`)."""
        variables, registered = len(self.pool), len(self.lineage_parents)
        anon_counter = self._anon_counter
        with self.constraints.scoped():
            try:
                yield self
            finally:
                self.pool.truncate(variables)
                self._anon_counter = anon_counter
                # Operators register fresh variables: the newest entries.
                while len(self.lineage_parents) > registered:
                    index, _ = self.lineage_parents.popitem()
                    for constraint in self.lineage_constraints.pop(index):
                        self._lineage_constraint_ids.discard(id(constraint))

    # -- statistics --------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.pool)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def stats(self) -> dict:
        """Model-size counters, as reported in the paper's Figure 7."""
        return {
            "variables": self.num_variables,
            "constraints": self.num_constraints,
            "relations": len(self.relations),
            "tuples": sum(len(rel) for rel in self.relations.values()),
        }

    def __repr__(self) -> str:
        return (
            f"LICMModel({len(self.relations)} relations, "
            f"{self.num_variables} vars, {self.num_constraints} constraints)"
        )
