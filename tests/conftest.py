"""Pytest configuration: make tests/helpers importable and share fixtures."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="module")
def process_fabric():
    """One two-worker process fabric per test module: forking a pool per
    test (or per hypothesis example) would dominate the run."""
    from repro.engine.fabric import ProcessFabric

    with ProcessFabric(workers=2) as fabric:
        yield fabric
