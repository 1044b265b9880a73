"""repro — reproduction of "Aggregate Query Answering on Possibilistic Data
with Cardinality Constraints" (Cormode, Srivastava, Shen, Yu; ICDE 2012).

The package implements LICM (Linear Integer Constraint Model): a working
model for uncertain data with cardinality constraints, relational operators
translated into the model, and exact aggregate bounds via binary integer
programming — plus the anonymization substrates, Monte Carlo baseline and
experiment harness used by the paper's evaluation.

Quickstart::

    from repro import LICMModel, cardinality, licm_select, count_bounds
    from repro.relational import Compare

    model = LICMModel()
    trans = model.relation("TRANSITEM", ["TID", "ItemName"])
    b1, b2, b3 = model.new_vars(3)
    trans.insert(("T1", "Beer"), ext=b1)
    trans.insert(("T1", "Wine"), ext=b2)
    trans.insert(("T1", "Liquor"), ext=b3)
    trans.insert(("T1", "Shampoo"))            # certain tuple
    model.add_all(cardinality([b1, b2, b3], 1, 3))

    result = licm_select(trans, Compare("ItemName", "!=", "Shampoo"))
    print(count_bounds(result))                # [1, 3]
"""

from repro.core import (
    AggregateBounds,
    BoolVar,
    PriorModel,
    avg_bounds,
    expected_value,
    extend_assignment,
    group_count_bounds,
    tail_bounds,
    LICMModel,
    LICMRelation,
    LinearConstraint,
    LinearExpr,
    at_least,
    at_most,
    bijection,
    cardinality,
    coexist,
    count_bounds,
    count_objective,
    exactly,
    implies,
    licm_dedup,
    licm_difference,
    licm_having_count,
    licm_intersect,
    licm_join,
    licm_product,
    licm_project,
    licm_rename,
    licm_select,
    licm_union,
    linear_sum,
    minmax_bounds,
    mutually_exclusive,
    objective_bounds,
    sum_bounds,
    sum_objective,
)
from repro.engine import SolveSession
from repro.errors import (
    AnonymizationError,
    ConstraintError,
    InfeasibleError,
    ModelError,
    QueryError,
    ReproError,
    SamplingError,
    SchemaError,
    SolverError,
)
from repro.solver import Solution, SolverOptions

__version__ = "1.0.0"

__all__ = [
    "AggregateBounds",
    "AnonymizationError",
    "BoolVar",
    "PriorModel",
    "avg_bounds",
    "expected_value",
    "extend_assignment",
    "group_count_bounds",
    "tail_bounds",
    "ConstraintError",
    "InfeasibleError",
    "LICMModel",
    "LICMRelation",
    "LinearConstraint",
    "LinearExpr",
    "ModelError",
    "QueryError",
    "ReproError",
    "SamplingError",
    "SchemaError",
    "Solution",
    "SolveSession",
    "SolverError",
    "SolverOptions",
    "at_least",
    "at_most",
    "bijection",
    "cardinality",
    "coexist",
    "count_bounds",
    "count_objective",
    "exactly",
    "implies",
    "licm_dedup",
    "licm_difference",
    "licm_having_count",
    "licm_intersect",
    "licm_join",
    "licm_product",
    "licm_project",
    "licm_rename",
    "licm_select",
    "licm_union",
    "linear_sum",
    "minmax_bounds",
    "mutually_exclusive",
    "objective_bounds",
    "sum_bounds",
    "sum_objective",
    "__version__",
]
