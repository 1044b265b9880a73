"""Stable fingerprints of prepared BIP blocks.

Two aggregate queries issued against one shared LICM model allocate
*different* lineage variable indices even when they are structurally the
same query (each evaluation appends fresh variables to the pool).  To let
the solve cache recognise the repeat, a block's fingerprint is taken over
the dense :class:`~repro.solver.model.BIPProblem` the solver runs, whose
column order :func:`~repro.solver.model.from_licm` fixes independently of
absolute model indices: by first appearance, objective first.  That one
order is the canonical one — solution vectors, L1/L2 entries and
fingerprints all live in it, and nothing translates between orders.

The fingerprint is a BLAKE2b digest of the problem's objective terms
(sorted), its objective constant, and its ``(terms, op, rhs)`` constraint
tuples sorted lexicographically, so store order does not leak into it.

The column order is deterministic, not a graph-isomorphism certificate:
two problems that are isomorphic under an index permutation that does not
preserve relative creation order may fingerprint differently.  That is a
safe failure (a cache miss, never a wrong hit) — equality of fingerprints
implies equality of the problems up to constraint order, which is what
cache correctness needs: a vector cached for one is a witness of the other.
"""

from __future__ import annotations

import hashlib

from repro.solver.model import BIPProblem


def canonicalize(problem: BIPProblem) -> str:
    """The fingerprint of a block built by :func:`~repro.solver.model.from_licm`."""
    key = (
        tuple(sorted(problem.objective.items())),
        problem.objective_constant,
        tuple(sorted((c.terms, c.op, c.rhs) for c in problem.constraints)),
    )
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()
