"""``python -m repro explain``: one ``explain=true`` scheduler request.

The CLI answers through an in-process
:class:`~repro.service.scheduler.QueryScheduler`, so its payload carries
the same bounds as a plain ``tight`` answer on the same fixture, and
``--infeasible`` surfaces the service's IIS over the injected conflict.
"""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler

TRANSACTIONS = 80


def _tight_answer():
    """Q1 at ``tight`` on the fixture the CLI builds (its defaults)."""
    config = ExperimentConfig(
        num_transactions=TRANSACTIONS,
        num_items=96,
        k_values=(2,),
        mc_samples=5,
        seed=3,
        solver_backend="bb",
    )
    context = ExperimentContext(config)
    try:
        with QueryScheduler(context, workers=1) as scheduler:
            scheduler.warm([("km", 2)])
            return scheduler.execute(QueryRequest(query="Q1", precision="tight"))
    finally:
        context.close()


def test_explain_json_carries_the_tight_bounds(capsys):
    assert main(["explain", "Q1", "--json", "--transactions", str(TRANSACTIONS)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == STATUS_OK
    assert payload["components"]
    assert payload["decomposition"]["blocks"]
    tight = _tight_answer()
    assert tight.status == STATUS_OK
    bounds = payload["bounds"]
    assert (bounds["lower"], bounds["upper"], bounds["exact"]) == (
        tight.lower,
        tight.upper,
        tight.exact,
    )


def test_explain_infeasible_renders_the_injected_pair(capsys):
    argv = ["explain", "Q1", "--infeasible", "--transactions", str(TRANSACTIONS)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("status=error")
    conflict = text.split("irreducible conflict set:", 1)[1].split("\n")
    rows = [row.strip() for row in conflict if row.strip()]
    lower = next(row for row in rows if row.endswith(">= 1"))
    upper = next(row for row in rows if row.endswith("<= 0"))
    # Both sides of the pair constrain the same one named variable.
    assert lower.rsplit(" ", 2)[0] == upper.rsplit(" ", 2)[0]
    assert lower.startswith("1*b")
