"""Figure 7: effectiveness of pruning.

For Query 2 and Query 3 on k-anonymized data (k = 6), the paper reports
the number of variables and constraints (i) after LICM modeling, (ii) after
query processing, and (iii) after pruning, showing reductions of two orders
of magnitude for the simpler query and a still-substantial reduction for
the complex one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.linexpr import LinearExpr
from repro.core.pruning import prune
from repro.experiments.reporting import format_table, section
from repro.experiments.runner import ExperimentContext
from repro.queries.licm_eval import evaluate_licm


@dataclass
class Figure7Row:
    query: str
    vars_model: int
    cons_model: int
    vars_query: int
    cons_query: int
    vars_pruned: int
    cons_pruned: int


def run_figure7(
    context: ExperimentContext | None = None,
    k: int = 6,
    scheme: str = "k-anonymity",
    queries=("Q2", "Q3"),
) -> List[Figure7Row]:
    context = context or ExperimentContext()
    rows: List[Figure7Row] = []
    record = context.encoding(scheme, k)
    model = record.encoded.model
    vars_model, cons_model = model.num_variables, model.num_constraints
    for query in queries:
        # One scope per query, so "after querying" counts only its lineage.
        with model.scoped():
            plan = context.plan(query, record.encoded)
            objective = evaluate_licm(plan, record.encoded.relations)
            assert isinstance(objective, LinearExpr)
            vars_query, cons_query = model.num_variables, model.num_constraints
            pruned = prune(model.constraints, objective.coeffs.keys())
        seen = set(objective.coeffs)
        for constraint in pruned.constraints:
            seen.update(constraint.variables)
        rows.append(
            Figure7Row(
                query=query,
                vars_model=vars_model,
                cons_model=cons_model,
                vars_query=vars_query,
                cons_query=cons_query,
                vars_pruned=len(seen),
                cons_pruned=len(pruned.constraints),
            )
        )
    return rows


def render_figure7(rows: List[Figure7Row], scheme: str = "k-anonymity", k: int = 6) -> str:
    out = [section(f"Figure 7: pruning effectiveness ({scheme}, k={k})")]
    for row in rows:
        out.append(f"\n-- {row.query} --")
        out.append(
            format_table(
                ["", "LICM modeling", "Querying", "After pruning"],
                [
                    ("# variables", row.vars_model, row.vars_query, row.vars_pruned),
                    ("# constraints", row.cons_model, row.cons_query, row.cons_pruned),
                ],
            )
        )
    return "\n".join(out)
