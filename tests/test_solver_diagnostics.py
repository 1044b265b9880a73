"""Infeasibility diagnostics: the deletion-filter IIS finder."""

from __future__ import annotations

from repro.core.database import LICMModel
from repro.core.linexpr import linear_sum
from repro.solver.diagnostics import (
    diagnose_infeasibility,
    explain_infeasibility,
    find_iis,
)
from repro.solver.model import BIPConstraint, BIPProblem


def _problem(constraints, num_vars):
    return BIPProblem(num_vars=num_vars, constraints=constraints, objective={})


def test_feasible_problem_has_no_iis():
    problem = _problem([BIPConstraint(((1, 0), (1, 1)), "<=", 1)], 2)
    assert find_iis(problem) is None


def test_iis_for_direct_contradiction():
    # x0 >= 1 and x0 <= 0 conflict; x1's constraint is irrelevant.
    conflicting = [
        BIPConstraint(((1, 0),), ">=", 1),
        BIPConstraint(((1, 0),), "<=", 0),
    ]
    noise = BIPConstraint(((1, 1),), "<=", 1)
    iis = find_iis(_problem(conflicting + [noise], 2))
    assert iis is not None
    assert set(map(id, iis)) == set(map(id, conflicting))


def test_iis_is_irreducible():
    # sum of three vars >= 3 forces all ones, but pairwise exclusions forbid it.
    constraints = [
        BIPConstraint(((1, 0), (1, 1), (1, 2)), ">=", 3),
        BIPConstraint(((1, 0), (1, 1)), "<=", 1),
        BIPConstraint(((1, 2),), "<=", 1),  # redundant: never part of a conflict
    ]
    problem = _problem(constraints, 3)
    iis = find_iis(problem)
    assert iis is not None
    # dropping any constraint from the IIS restores feasibility
    for index in range(len(iis)):
        trimmed = iis[:index] + iis[index + 1 :]
        assert find_iis(_problem(trimmed, 3)) is None


def test_explain_infeasibility_renders_names():
    model = LICMModel()
    a, b = model.new_vars(2)
    model.add(linear_sum([a, b]) >= 2)  # both must be 1 ...
    model.add((a + b) <= 1)  # ... but at most one may be
    rendered = explain_infeasibility(model)
    assert rendered is not None
    assert len(rendered) == 2
    assert all(isinstance(line, str) and ("<=" in line or ">=" in line) for line in rendered)


def test_explain_infeasibility_none_when_feasible():
    model = LICMModel()
    a, b = model.new_vars(2)
    model.add((a + b) <= 2)
    assert explain_infeasibility(model) is None


def test_diagnose_infeasibility_is_the_explain_block():
    conflicting = [
        BIPConstraint(((1, 0),), ">=", 1),
        BIPConstraint(((1, 0),), "<=", 0),
    ]
    problem = BIPProblem(
        num_vars=1, constraints=conflicting, objective={}, names=["x"]
    )
    block = diagnose_infeasibility(problem, time_budget=5.0)
    assert block["iis"] == ["1*x >= 1", "1*x <= 0"]
    assert block["constraints"] == 2
    assert block["budget_exhausted"] is False
    assert block["seconds"] >= 0
    assert diagnose_infeasibility(_problem([], 1), time_budget=5.0) is None
