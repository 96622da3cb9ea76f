"""Feasibility checks for conditions C.1 and C.2 (Section 2.2).

C.1 — the partitions are disjoint and cover every node: guaranteed by
the label-vector representation, so :func:`check_cover` only verifies
the labels are well-formed (dense, non-negative, no gaps).

C.2 — every partition is connected in the road graph:
:func:`check_connectivity` reports the partitions violating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitioningError
from repro.graph.components import is_connected


@dataclass
class PartitionValidation:
    """Result of validating a partitioning.

    Attributes
    ----------
    k:
        Number of partitions.
    disconnected:
        Ids of partitions that are not connected subgraphs.
    sizes:
        Node count per partition.
    """

    k: int
    disconnected: List[int] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """True when both C.1 and C.2 hold."""
        return not self.disconnected


def check_cover(labels, n_nodes: int) -> int:
    """Verify C.1; returns k. Raises on malformed label vectors."""
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (n_nodes,):
        raise PartitioningError(
            f"labels must have shape ({n_nodes},), got {lab.shape}"
        )
    if lab.size == 0:
        raise PartitioningError("empty partitioning")
    if lab.min() < 0:
        raise PartitioningError("labels must be non-negative")
    k = int(lab.max()) + 1
    missing = np.flatnonzero(np.bincount(lab, minlength=k) == 0)
    if missing.size:
        raise PartitioningError(f"label gaps: partitions {missing.tolist()} are empty")
    return k


def check_connectivity(adjacency, labels) -> List[int]:
    """Partition ids violating C.2 (not connected in the graph)."""
    adj = sp.csr_matrix(adjacency)
    lab = np.asarray(labels, dtype=int)
    k = check_cover(lab, adj.shape[0])
    violations: List[int] = []
    for i in range(k):
        members = np.flatnonzero(lab == i)
        if not is_connected(adj, members):
            violations.append(i)
    return violations


def validate_partitioning(adjacency, labels) -> PartitionValidation:
    """Full C.1 + C.2 validation with per-partition sizes."""
    adj = sp.csr_matrix(adjacency)
    lab = np.asarray(labels, dtype=int)
    k = check_cover(lab, adj.shape[0])
    sizes = np.bincount(lab, minlength=k).tolist()
    disconnected = check_connectivity(adj, lab)
    return PartitionValidation(k=k, disconnected=disconnected, sizes=sizes)
