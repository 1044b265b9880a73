"""Unit tests for reachability pruning (Section V's Figure 7 mechanism)."""

from repro.core.aggregates import count_objective
from repro.core.bounds import count_bounds
from repro.core.constraints import ConstraintStore
from repro.core.count_predicate import licm_having_count
from repro.core.database import LICMModel
from repro.core.operators import licm_select
from repro.core.pruning import prune, prune_fixpoint, prune_single_pass
from repro.relational.predicates import InSet
from helpers import fig4b_model


def test_prune_drops_unreachable():
    model = LICMModel()
    a, b, c, d = model.new_vars(4)
    model.add(a + b >= 1)
    model.add(c + d <= 1)  # unrelated island
    result = prune_fixpoint(model.constraints, {a.index})
    assert len(result.constraints) == 1
    assert result.variables == {a.index, b.index}
    assert result.stats["constraints_before"] == 2
    assert result.stats["constraints_after"] == 1


def test_prune_transitive_closure():
    model = LICMModel()
    a, b, c, d = model.new_vars(4)
    model.add(a + b >= 1)
    model.add(b + c <= 1)
    model.add(d >= 0)
    result = prune_fixpoint(model.constraints, {a.index})
    assert result.variables == {a.index, b.index, c.index}
    assert len(result.constraints) == 2


def test_single_pass_matches_fixpoint_on_operator_output():
    """On models produced by LICM operators, the paper's single backward
    pass finds exactly the fixpoint-reachable subproblem."""
    model, rel, _ = fig4b_model()
    selected = licm_select(rel, InSet("ItemName", {"Pregnancy test", "Diapers", "Shampoo"}))
    result = licm_having_count(selected, ["TID"], ">=", 2)
    objective = count_objective(result)
    fix = prune_fixpoint(model.constraints, objective.coeffs.keys())
    single = prune_single_pass(model.constraints, objective.coeffs.keys())
    assert fix.variables == single.variables
    assert fix.constraints == single.constraints


def test_single_pass_can_underapproximate_adversarial_order():
    """The documented caveat: out-of-creation-order stores can defeat the
    single pass, which is why bounds default to the fixpoint variant."""
    store = ConstraintStore()
    model = LICMModel()
    a, b, c = model.new_vars(3)
    store.add(a + b >= 1)  # reaches b, but is scanned last...
    store.add(b + c <= 1)  # ...so this earlier-scanned link to b is missed
    single = prune_single_pass(store, {a.index})
    fix = prune_fixpoint(store, {a.index})
    assert len(fix.constraints) == 2
    assert len(single.constraints) == 1


def test_prune_dispatch():
    model = LICMModel()
    a, b = model.new_vars(2)
    model.add(a + b >= 1)
    assert prune(model.constraints, {a.index}, "fixpoint").constraints
    assert prune(model.constraints, {a.index}, "single_pass").constraints
    try:
        prune(model.constraints, {a.index}, "bogus")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_pruning_is_lossless_for_bounds():
    """Bounds with and without pruning agree (the paper prunes purely for
    solver memory, not semantics)."""
    model, rel, _ = fig4b_model()
    # add an unrelated island that pruning should discard
    island = model.new_vars(3)
    model.add((island[0] + island[1] + island[2]).eq(2))
    selected = licm_select(rel, InSet("ItemName", {"Pregnancy test", "Diapers"}))
    result = licm_having_count(selected, ["TID"], ">=", 1)
    pruned = count_bounds(result, do_prune=True)
    unpruned = count_bounds(result, do_prune=False)
    assert (pruned.lower, pruned.upper) == (unpruned.lower, unpruned.upper)
    assert pruned.stats["constraints_after"] < unpruned.stats["constraints_after"]


# -- the store's maintained indexes vs. the whole-store scans they replace ----
def _scanned_variables(store):
    out = set()
    for constraint in store:
        out.update(constraint.variables)
    return out


def _scanned_positions(store):
    return {id(c): i for i, c in enumerate(store)}


def _scan_prune_fixpoint(store, seeds):
    """``prune_fixpoint`` as it was before the store kept its indexes."""
    reachable = set(seeds)
    all_vars = _scanned_variables(store) | reachable
    position_of = _scanned_positions(store)
    kept_positions = set()
    queue = list(reachable)
    while queue:
        var = queue.pop()
        for constraint in store.constraints_on(var):
            pos = position_of[id(constraint)]
            if pos in kept_positions:
                continue
            kept_positions.add(pos)
            for other in constraint.variables:
                if other not in reachable:
                    reachable.add(other)
                    queue.append(other)
    kept = [store[pos] for pos in sorted(kept_positions)]
    return kept, reachable, len(store), len(all_vars)


def _scan_prune_lineage(model, seeds):
    """``prune_lineage`` as it was before the store kept its indexes."""
    store = model.constraints
    position_of = _scanned_positions(store)
    all_vars = _scanned_variables(store) | set(seeds)
    reachable = set(seeds)
    kept_positions = set()
    queue = list(reachable)
    while queue:
        var = queue.pop()
        if var in model.lineage_parents:
            for constraint in model.lineage_constraints[var]:
                kept_positions.add(position_of[id(constraint)])
            for parent in model.lineage_parents[var]:
                if parent not in reachable:
                    reachable.add(parent)
                    queue.append(parent)
        for constraint in store.constraints_on(var):
            if model.is_lineage_constraint(constraint):
                continue
            pos = position_of[id(constraint)]
            if pos in kept_positions:
                continue
            kept_positions.add(pos)
            for other in constraint.variables:
                if other not in reachable:
                    reachable.add(other)
                    queue.append(other)
    kept = [store[pos] for pos in sorted(kept_positions)]
    return kept, reachable, len(store), len(all_vars)


def _operator_models():
    """Shared models after several operator-generated queries, with the
    objective of every query as a seed set."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries.licm_eval import evaluate_licm

    config = ExperimentConfig(num_transactions=60, num_items=24, k_values=(2,), seed=7)
    context = ExperimentContext(config)
    try:
        for scheme in ("km", "k-anonymity"):
            encoded = context.encoding(scheme, 2).encoded
            seeds = [
                set(evaluate_licm(context.plan(q, encoded), encoded.relations).coeffs)
                for q in ("Q1", "Q2", "Q1")
            ]
            yield encoded.model, seeds
    finally:
        context.close()
    model, rel, _ = fig4b_model()
    selected = licm_select(rel, InSet("ItemName", {"Pregnancy test", "Diapers", "Shampoo"}))
    objective = count_objective(licm_having_count(selected, ["TID"], ">=", 2))
    twice = model.add(next(iter(model.constraints)))  # one object, two positions
    assert model.constraints.position(twice) == len(model.constraints) - 1
    yield model, [set(objective.coeffs), set(objective.coeffs) | {10_000}]


def test_maintained_indexes_match_whole_store_scans():
    """The store keeps its position map and variable set up to date on
    append; every prune must report what the old whole-store scans did."""
    for model, seed_sets in _operator_models():
        store = model.constraints
        assert store.variables == _scanned_variables(store)
        positions = _scanned_positions(store)
        assert all(store.position(c) == positions[id(c)] for c in store)
        for seeds in seed_sets:
            results = {
                "lineage": (prune(store, seeds, "lineage", model=model),
                            _scan_prune_lineage(model, seeds)),
                "fixpoint": (prune(store, seeds, "fixpoint"),
                             _scan_prune_fixpoint(store, seeds)),
            }
            for method, (new, old) in results.items():
                assert tuple(new) == old, method
            single = prune(store, seeds, "single_pass")
            assert single.original_variables == len(_scanned_variables(store) | seeds)
            assert single.original_constraints == len(store)
    copied = store.copy()
    assert copied.variables == store.variables
    assert all(copied.position(c) == store.position(c) for c in store)
