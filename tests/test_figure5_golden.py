"""The paper's Figure 5 against its committed golden cells.

The golden cells (tests/golden/figure5.json) are parsed from the
committed ``experiments_output.txt``.  Tier 1 regenerates the Bipartite
Grouping panels — all three queries at every k, about 15 s on 2 vCPUs;
the k^m and k-anonymity cells pay 1–3 s of encoding and 3–11 s of Monte
Carlo each, so the CI job ``figure5-golden`` checks all 36 through
``python -m repro.experiments figure5`` instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from figure5_golden import cell_key, compare, load_golden, parse_figure5
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.runner import QUERIES, ExperimentContext

OUTPUT = Path(__file__).resolve().parents[1] / "experiments_output.txt"
GOLDEN = load_golden()


def test_golden_cells_are_the_committed_output():
    parsed = parse_figure5(OUTPUT.read_text())
    assert parsed["workload"] == GOLDEN["workload"]
    assert parsed["cells"] == GOLDEN["cells"]
    assert len(GOLDEN["cells"]) == 36
    assert compare(GOLDEN["cells"], GOLDEN["cells"]) == []


def test_compare_flags_a_changed_cell_and_an_escaped_mc_range():
    cells = [dict(cell) for cell in GOLDEN["cells"]]
    cells[0]["l_max"] = cells[0]["m_max"] - 1
    problems = compare(cells[:-1], GOLDEN["cells"])
    assert any("l_max" in problem for problem in problems)
    assert any("MC range not inside" in problem for problem in problems)
    assert any("missing" in problem for problem in problems)


@pytest.fixture(scope="module")
def context():
    config = ExperimentConfig()
    assert config.label == GOLDEN["workload"]
    ctx = ExperimentContext(config)
    yield ctx
    ctx.close()


def test_bipartite_panels_reproduce_the_golden_cells(context):
    rows = run_figure5(context, schemes=("bipartite",), queries=QUERIES)
    observed = parse_figure5(render_figure5(rows))["cells"]
    golden = [cell for cell in GOLDEN["cells"] if cell["scheme"] == "bipartite"]
    assert sorted(map(cell_key, observed)) == sorted(map(cell_key, golden))
    assert compare(observed, golden) == []
