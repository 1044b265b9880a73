"""The shared solve-engine layer.

One :class:`SolveSession` per LICM model owns the
``prune -> split -> from_licm + canonicalize -> solve(min)+solve(max) ->
witness`` pipeline with fingerprint-keyed solve caching and optional
parallel min/max.  Each block is built once, in the canonical column
order (:func:`repro.solver.model.from_licm`), and fingerprinted as built
(:func:`canonicalize`).  ``core.bounds`` and ``queries.answer`` are thin
facades over this package.
"""

from repro.engine.cache import CachedSolve, SolveCache
from repro.engine.canonical import canonicalize
from repro.engine.fabric import (
    ExecutorFabric,
    InlineFabric,
    ProcessFabric,
    SolveUnit,
    ThreadFabric,
    UnitResult,
    make_fabric,
)
from repro.engine.l2cache import L2SolveCache
from repro.engine.session import PreparedComponent, PreparedProblem, SolveSession

__all__ = [
    "CachedSolve",
    "canonicalize",
    "ExecutorFabric",
    "InlineFabric",
    "L2SolveCache",
    "PreparedComponent",
    "PreparedProblem",
    "ProcessFabric",
    "SolveCache",
    "SolveSession",
    "SolveUnit",
    "ThreadFabric",
    "UnitResult",
    "make_fabric",
]
