"""Shared output types for the anonymization substrates.

Every generalization-style algorithm (k-anonymity, k^m-anonymity) produces
a :class:`GeneralizedDataset`: per transaction, a set of hierarchy nodes
(concrete items stay leaves; generalized items are internal nodes).  The
LICM encoders in :mod:`repro.anonymize.encode` consume these outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.anonymize.hierarchy import Hierarchy
from repro.data.transactions import TransactionDataset


@dataclass
class GeneralizedDataset:
    """Output of a generalization-based anonymization."""

    source: TransactionDataset
    hierarchy: Hierarchy
    #: per transaction: (tid, frozenset of hierarchy nodes)
    transactions: List[Tuple[str, FrozenSet[str]]]
    method: str = ""
    params: Dict[str, int] = field(default_factory=dict)
    #: groups of tids with identical generalized representation (k-anonymity)
    equivalence_classes: Optional[List[List[str]]] = None

    def information_loss(self) -> float:
        """Average LM loss over all (transaction, node) occurrences."""
        total, count = 0.0, 0
        for _, nodes in self.transactions:
            for node in nodes:
                total += self.hierarchy.information_loss(node)
                count += 1
        return total / count if count else 0.0


@dataclass
class BipartiteGrouping:
    """Output of bipartite safe (k, l)-grouping (Appendix B).

    The graph topology is published exactly: ``edges`` maps each left node
    to the item names on its right side.  What is hidden is which TID is
    which left node within a transaction group (and, when ``l > 1``, which
    item is which right node within an item group).
    """

    source: TransactionDataset
    #: groups of tids; within a group the tid -> left-node mapping is hidden
    transaction_groups: List[List[str]]
    #: groups of items; singleton groups mean the item side is public
    item_groups: List[List[str]]
    #: left-node id -> tuple of right-node ids (the exact graph G)
    edges: Dict[str, Tuple[str, ...]]
    #: ground truth (kept for testing/sampling only, never encoded)
    tid_of_lnode: Dict[str, str] = field(default_factory=dict)
    item_of_rnode: Dict[str, str] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)


@dataclass
class SuppressedDataset:
    """Output of suppression-based anonymization ((h,k,p)-coherence)."""

    source: TransactionDataset
    #: per transaction: (tid, itemset with suppressed items removed)
    transactions: List[Tuple[str, FrozenSet[str]]]
    #: globally suppressed items (absent from every published transaction)
    suppressed_items: FrozenSet[str]
    #: optional per-tid count of suppressed occurrences (a cardinality hint)
    revealed_counts: Optional[Dict[str, int]] = None
    params: Dict[str, float] = field(default_factory=dict)
