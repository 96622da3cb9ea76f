"""The user-facing alpha-Cut partitioner (Algorithm 3 complete).

:class:`AlphaCutPartitioner` runs the spectral relaxation, extracts
connected partitions (k' >= k), and — when exactly k partitions are
required — reduces them with global recursive bipartitioning (default)
or greedy pruning. It accepts either a raw adjacency matrix, a
:class:`repro.graph.Graph`, or a :class:`repro.supergraph.Supergraph`
(in which case the result can be expanded to road-segment labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.refine import (
    greedy_prune,
    partition_connectivity_matrix,
    recursive_bipartition,
    repair_connectivity,
)
from repro.core.spectral import consume_eigensolver_outcome, spectral_partition
from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.supergraph.model import Supergraph
from repro.util.rng import RngLike, ensure_rng


@dataclass
class AlphaCutResult:
    """Outcome of an alpha-Cut partitioning run.

    Attributes
    ----------
    labels:
        Final partition index per graph node (supernode when the input
        was a supergraph), dense 0..k-1.
    k_prime:
        Number of connected partitions after the spectral stage,
        before reduction to k.
    node_labels:
        Partition index per road-graph node — only set when the input
        was a :class:`Supergraph`; None otherwise.
    eigensolver:
        Outcome record of the embedding eigensolve (see
        :func:`repro.core.spectral.last_eigensolver_outcome`), not of
        the meta-graph bipartitions; None when k is 1 or n, which
        solve nothing.
    """

    labels: np.ndarray
    k_prime: int
    node_labels: Optional[np.ndarray] = None
    eigensolver: Optional[Dict] = None

    @property
    def k(self) -> int:
        """Number of final partitions."""
        return int(self.labels.max()) + 1 if self.labels.size else 0


class AlphaCutPartitioner:
    """k-way alpha-Cut spectral graph partitioner.

    Parameters
    ----------
    k:
        Desired number of partitions.
    exact_k:
        When True (default) reduce the k' spectral partitions to
        exactly k; when False accept the k' connected partitions.
    refinement:
        ``"recursive"`` (global recursive bipartitioning, the paper's
        choice) or ``"greedy"`` (greedy pruning).
    n_init:
        k-means restarts in eigenspace.
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        k: int,
        exact_k: bool = True,
        refinement: str = "recursive",
        n_init: int = 3,
        seed: RngLike = None,
    ) -> None:
        if k < 1:
            raise PartitioningError(f"k must be positive, got {k}")
        if refinement not in ("recursive", "greedy"):
            raise PartitioningError(
                f"refinement must be 'recursive' or 'greedy', got {refinement!r}"
            )
        self._k = int(k)
        self._exact_k = bool(exact_k)
        self._refinement = refinement
        self._n_init = int(n_init)
        self._seed = seed

    def partition(
        self, graph: Union[Graph, Supergraph, sp.spmatrix, np.ndarray]
    ) -> AlphaCutResult:
        """Partition ``graph`` into (at least) k connected partitions."""
        supergraph: Optional[Supergraph] = None
        if isinstance(graph, Supergraph):
            supergraph = graph
            adjacency = graph.adjacency
        elif isinstance(graph, Graph):
            adjacency = graph.adjacency
        else:
            adjacency = sp.csr_matrix(graph, dtype=float)

        n = adjacency.shape[0]
        if self._k > n:
            raise PartitioningError(
                f"cannot split {n} nodes into k={self._k} partitions"
            )
        rng = ensure_rng(self._seed)

        consume_eigensolver_outcome()  # drop any stale record
        labels = spectral_partition(
            adjacency,
            self._k,
            extract_components=True,
            n_init=self._n_init,
            seed=rng,
        )
        eigensolver = consume_eigensolver_outcome()
        k_prime = int(labels.max()) + 1

        if self._exact_k and k_prime > self._k:
            if self._refinement == "recursive":
                meta = partition_connectivity_matrix(adjacency, labels)
                groups = recursive_bipartition(meta, self._k, seed=rng)
                labels = groups[labels]
            else:
                labels = greedy_prune(adjacency, labels, self._k)
            # grouping partitions can join non-adjacent ones (C.2)
            labels = repair_connectivity(adjacency, labels, self._k)

        result = AlphaCutResult(labels=labels, k_prime=k_prime, eigensolver=eigensolver)
        if supergraph is not None:
            result.node_labels = supergraph.expand_partition(labels)
        return result


def alpha_cut_partition(
    graph,
    k: int,
    exact_k: bool = True,
    seed: RngLike = None,
) -> np.ndarray:
    """One-shot alpha-Cut partitioning; returns the label vector.

    For a :class:`Supergraph` input the *road-graph node* labels are
    returned (the usual thing a caller wants); otherwise the graph-node
    labels.
    """
    partitioner = AlphaCutPartitioner(k, exact_k=exact_k, seed=seed)
    result = partitioner.partition(graph)
    if result.node_labels is not None:
        return result.node_labels
    return result.labels
