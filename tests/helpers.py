"""Shared test utilities: small-model builders, brute-force oracles and
readers of the process metrics registry."""

from __future__ import annotations

from itertools import product as iter_product

from repro.core.database import LICMModel
from repro.core.relation import LICMRelation
from repro.core.worlds import enumerate_assignments, instantiate
from repro.experiments.config import ExperimentConfig
from repro.obs.export import global_registry
from repro.obs.manifest import _series
from repro.queries.licm_eval import evaluate_licm
from repro.relational.relation import Database, Relation
from repro.service.scheduler import _adhoc_plan


def counter_totals() -> dict:
    """``repro_counter_total`` as ``{name: total}`` (subtract two reads
    for a delta — the registry is process-wide)."""
    return _series(global_registry().counter("counter_total"), "name")


def phase_totals() -> dict:
    """``repro_phase_seconds_total`` as ``{phase: seconds}``."""
    return _series(global_registry().counter("phase_seconds_total"), "phase")


def delta(before: dict, after: dict) -> dict:
    """The entries of ``after`` that moved since ``before``."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def all_valid_assignments(model: LICMModel):
    """Every valid complete assignment over all pool variables."""
    variables = list(range(len(model.pool)))
    return list(enumerate_assignments(model.constraints, variables))


def brute_force_objective_range(model: LICMModel, objective):
    """(min, max) of a LinearExpr over all valid assignments."""
    values = [objective.value(a) for a in all_valid_assignments(model)]
    return min(values), max(values)


def tiny_config(**overrides) -> ExperimentConfig:
    """An enumerable database: 4 transactions, 16 variables, 50,625 worlds."""
    defaults = dict(
        num_transactions=4, num_items=4, k_values=(2,), seed=7, solver_backend="bb"
    )
    return ExperimentConfig(**{**defaults, **overrides})


def brute_force_adhoc(encoded, aggregate):
    """The exact ``[lower, upper]`` of the scheduler's ad-hoc ``aggregate``
    (``count``/``sum``/``min``/``max``) over every world."""
    plan = _adhoc_plan(encoded, aggregate)
    if aggregate in ("count", "sum"):
        return brute_force_objective_range(
            encoded.model, evaluate_licm(plan, encoded.relations)
        )
    relation = evaluate_licm(plan.child, encoded.relations)
    position = relation.position(plan.attribute)
    pick = max if aggregate == "max" else min
    answers = set()
    for assignment in all_valid_assignments(encoded.model):
        present = [
            row.values[position]
            for row in relation.rows
            if row.certain or assignment[row.ext.index] == 1
        ]
        if present:
            answers.add(pick(present))
    return min(answers), max(answers)


def fig2c_model():
    """Figure 2(c): transaction T1 with a generalized Alcohol item.

    Returns (model, relation, [b1, b2, b3]).
    """
    model = LICMModel()
    trans = model.relation("TRANSITEM", ["TID", "ItemName"])
    b1, b2, b3 = model.new_vars(3)
    trans.insert(("T1", "Beer"), ext=b1)
    trans.insert(("T1", "Wine"), ext=b2)
    trans.insert(("T1", "Liquor"), ext=b3)
    trans.insert(("T1", "Shampoo"))
    model.add((b1 + b2 + b3) >= 1)
    return model, trans, [b1, b2, b3]


def fig3_models():
    """Figure 3: the two relations of the intersection example.

    Returns (model, r1, r2, vars_dict).
    """
    model = LICMModel()
    r1 = model.relation("R1", ["TID", "ItemName"])
    b1, b2 = model.new_vars(2)
    r1.insert(("T1", "wine"), ext=b1)
    r1.insert(("T1", "liquor"), ext=b2)
    r1.insert(("T2", "beer"))
    model.add((b1 + b2) >= 1)
    r2 = model.relation("R2", ["TID", "ItemName"])
    b3, b4 = model.new_vars(2)
    r2.insert(("T1", "wine"), ext=b3)
    r2.insert(("T2", "beer"), ext=b4)
    return model, r1, r2, {"b1": b1, "b2": b2, "b3": b3, "b4": b4}


def fig4b_model():
    """Figure 4(b): the health-care count-predicate example."""
    model = LICMModel()
    rel = model.relation("R", ["TID", "ItemName"])
    b1, b2, b3 = model.new_vars(3)
    rel.insert(("T1", "Pregnancy test"), ext=b1)
    rel.insert(("T1", "Diapers"), ext=b2)
    rel.insert(("T1", "Shampoo"), ext=b3)
    rel.insert(("T2", "Wine"))
    b6 = model.new_var("b6")
    rel.insert(("T2", "Shampoo"), ext=b6)
    b7 = model.new_var("b7")
    rel.insert(("T3", "Pregnancy test"), ext=b7)
    return model, rel, [b1, b2, b3, b6, b7]


def worlds_of_relation(model: LICMModel, relation: LICMRelation):
    """Set of frozensets: distinct instantiations of one relation."""
    return {
        frozenset(instantiate(relation, assignment))
        for assignment in all_valid_assignments(model)
    }


def per_world_results(model: LICMModel, relations: dict[str, LICMRelation], plan):
    """Evaluate a plan on every possible world with the deterministic engine.

    Returns the sorted list of distinct results: frozensets for relational
    plans, ints for aggregate plans.
    """
    from repro.relational.query import evaluate

    results = []
    for assignment in all_valid_assignments(model):
        db = Database()
        for name, relation in relations.items():
            db.add(
                Relation(name, relation.attributes, instantiate(relation, assignment))
            )
        outcome = evaluate(plan, db)
        if isinstance(outcome, int):
            results.append(outcome)
        else:
            results.append(frozenset(outcome.rows))
    return results


def licm_result_worlds(model: LICMModel, result: LICMRelation):
    """Distinct instantiations of an operator output under valid assignments.

    Set semantics: each world is a frozenset of value tuples.
    """
    return {
        frozenset(instantiate(result, assignment))
        for assignment in all_valid_assignments(model)
    }
