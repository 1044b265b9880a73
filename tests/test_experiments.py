"""Experiment harness tests at miniature scale."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.figure6 import render_figure6, run_figure6
from repro.experiments.figure7 import render_figure7, run_figure7
from repro.experiments.runner import ExperimentContext


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(
        ExperimentConfig(
            num_transactions=250, num_items=64, k_values=(2,), mc_samples=5, seed=5
        )
    )


def test_config_scales_selectivity():
    config = ExperimentConfig(num_transactions=500)
    assert config.params.pa_selectivity == pytest.approx(100 / 500)
    assert "500tx" in config.label


@pytest.mark.parametrize("num_transactions", [60, 119])
def test_q3_fits_the_location_range_on_small_datasets(num_transactions):
    """Q3's Pa and Pb are adjacent location ranges, so below 120
    transactions each is clamped to half the domain; Q3 builds and
    answers."""
    config = ExperimentConfig(
        num_transactions=num_transactions, num_items=24, k_values=(2,), seed=7
    )
    assert config.params.q3_selectivity == 0.5
    context = ExperimentContext(config)
    try:
        context.plan("Q3", context.encoding("km", 2).encoded)
        answer = context.licm_answer("Q3", "km", 2)
        assert answer.lower <= answer.upper
    finally:
        context.close()
    assert ExperimentConfig(num_transactions=120).params.q3_selectivity == 0.5
    assert ExperimentConfig(num_transactions=600).params.q3_selectivity == 0.1


def test_encoding_cache(context):
    first = context.encoding("km", 2)
    second = context.encoding("km", 2)
    assert first is second
    assert first.model_time >= 0
    assert first.anonymize_time >= 0


def test_figure5_rows_and_invariant(context):
    rows = run_figure5(context, schemes=("km", "bipartite"), queries=("Q1",), k_values=(2,))
    assert len(rows) == 2
    for row in rows:
        assert row.containment_holds
        assert row.exact
    text = render_figure5(rows)
    assert "Figure 5" in text
    assert "L_min" in text


def test_figure6_rows(context):
    rows = run_figure6(context, k=2, schemes=("bipartite",), queries=("Q1",))
    assert len(rows) == 1
    row = rows[0]
    assert row.licm_total >= row.solve_time
    assert row.mc_time > 0
    text = render_figure6(rows, k=2)
    assert "L-model" in text


#: Figure 7's representation sizes on this module's k-anonymity encoding:
#: (vars_query, cons_query, vars_pruned, cons_pruned).  Every lineage row
#: the operators write shows up here, so a drifting emitter moves them.
FIGURE7_GOLDEN = {
    "Q2": (7968, 1324, 3053, 819),
    "Q3": (9458, 7194, 5066, 6756),
}


def test_figure7_rows(context):
    rows = run_figure7(context, k=2, scheme="k-anonymity", queries=("Q2", "Q3"))
    assert [row.query for row in rows] == ["Q2", "Q3"]
    for row in rows:
        assert (row.vars_model, row.cons_model) == (7728, 765)
        sizes = (row.vars_query, row.cons_query, row.vars_pruned, row.cons_pruned)
        assert sizes == FIGURE7_GOLDEN[row.query]
    text = render_figure7(rows, k=2)
    assert "pruning" in text


def test_unknown_scheme_rejected(context):
    with pytest.raises(ValueError):
        context.encoding("bogus", 2)


def test_coherence_scheme(context):
    record = context.encoding("coherence", 2)
    assert record.encoded.kind == "suppressed"
    answer = context.licm_answer("Q1", "coherence", 2)
    assert answer.lower <= answer.upper
    mc = context.mc_answer("Q1", "coherence", 2)
    assert answer.lower <= mc.minimum <= mc.maximum <= answer.upper


def test_utility_harness(context):
    from repro.experiments.utility import render_utility, run_utility

    rows = run_utility(
        context, schemes=("km", "bipartite"), queries=("Q1",), k_values=(2,)
    )
    assert len(rows) == 2
    # km is a generalization scheme -> has an LM loss figure.
    km_row = next(r for r in rows if r.scheme == "km")
    assert km_row.loss is not None
    bip_row = next(r for r in rows if r.scheme == "bipartite")
    assert bip_row.loss is None
    text = render_utility(rows)
    assert "width" in text and "km" in text
