"""The serving process's heap policy (``repro.service.server._settle_heap``).

A server that owns its process collects once after warm-up, freezes the
warmed heap and raises the young-generation threshold to
``YOUNG_GC_THRESHOLD``.  That is safe only because requests leave no
cyclic garbage behind: everything a request allocates dies by refcount.
The last test checks that invariant over every kind of request the
service answers.  Every test restores the collector's state.
"""

from __future__ import annotations

import gc

import pytest

# The solver imports SciPy on its first MILP, and that import (numpy.ma)
# leaves ~300 objects of cyclic garbage once per process.  Import it
# before measuring, so the last test sees what requests leave.
import scipy.optimize  # noqa: F401
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentContext
from repro.service.api import STATUS_OK, QueryRequest
from repro.service.scheduler import QueryScheduler
from repro.service.server import YOUNG_GC_THRESHOLD, _settle_heap, serve

SCHEMES = ("k-anonymity", "km", "bipartite")


def _config() -> ExperimentConfig:
    return ExperimentConfig(num_transactions=60, num_items=24, k_values=(2,), seed=7)


@pytest.fixture(autouse=True)
def restore_gc():
    threshold = gc.get_threshold()
    yield
    gc.unfreeze()
    gc.set_threshold(*threshold)
    gc.enable()


def test_settle_heap_freezes_and_sets_the_threshold():
    _settle_heap()
    assert gc.get_freeze_count() > 0
    assert gc.get_threshold()[0] == YOUNG_GC_THRESHOLD


def test_serve_without_block_leaves_the_collector_alone():
    before = (gc.get_freeze_count(), gc.get_threshold())
    httpd, service, thread = serve(
        host="127.0.0.1", port=0, config=_config(), schemes=("km",), block=False
    )
    try:
        assert (gc.get_freeze_count(), gc.get_threshold()) == before
        assert service.status()["gc"]["frozen"] == before[0]
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=10.0)
    assert (gc.get_freeze_count(), gc.get_threshold()) == before


def _requests():
    for scheme in SCHEMES:
        for query in ("Q1", "Q2", "Q3"):
            yield QueryRequest(query=query, scheme=scheme)
        for precision in ("fast", "balanced"):
            yield QueryRequest(query="Q1", scheme=scheme, precision=precision)
        for aggregate in ("max", "min"):
            yield QueryRequest(aggregate=aggregate, scheme=scheme)


def test_requests_leave_no_cyclic_garbage():
    context = ExperimentContext(_config())
    try:
        with QueryScheduler(context, workers=2) as scheduler:
            scheduler.warm((scheme, 2) for scheme in SCHEMES)
            gc.collect()
            gc.disable()
            responses = [scheduler.execute(request) for request in _requests()]
            assert gc.collect() == 0
    finally:
        context.close()
    assert [r.status for r in responses] == [STATUS_OK] * len(responses)
