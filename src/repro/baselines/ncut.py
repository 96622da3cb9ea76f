"""Normalized cut spectral partitioning (Shi & Malik 2000).

The paper's comparison baseline (schemes NG and NSG). The k-way
normalized cut objective::

    Ncut(P) = sum_i W(P_i, ~P_i) / W(P_i, V)

is relaxed via the symmetric normalized Laplacian: the eigenvectors of
its k smallest eigenvalues are row-normalised (Ng-Jordan-Weiss) and
clustered with k-means. Like the alpha-Cut pipeline, eigen-clusters
are split into connected components and reduced back to exactly k
partitions with recursive bipartitioning — using normalized-cut
bipartitions so the baseline stays self-consistent.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.refine import (
    partition_connectivity_matrix,
    recursive_bipartition,
    repair_connectivity,
)
from repro.core.spectral import _densify, row_normalize
from repro.exceptions import PartitioningError
from repro.clustering.kmeans import kmeans
from repro.graph.adjacency import Graph
from repro.graph.components import connected_components
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import normalized_laplacian
from repro.supergraph.model import Supergraph
from repro.util.rng import RngLike, ensure_rng


def ncut_value(adjacency, labels) -> float:
    """Evaluate the k-way normalized cut of a labelling (lower is better).

    Partitions with zero total association contribute zero (their cut
    is necessarily zero too).
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (adj.shape[0],):
        raise PartitioningError(
            f"labels must have shape ({adj.shape[0]},), got {lab.shape}"
        )
    k = int(lab.max()) + 1 if lab.size else 0
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    touching = np.bincount(lab, weights=degrees, minlength=k)

    internal = np.zeros(k)
    coo = adj.tocoo()
    same = lab[coo.row] == lab[coo.col]
    np.add.at(internal, lab[coo.row[same]], coo.data[same])

    cut = touching - internal
    value = 0.0
    for i in range(k):
        if touching[i] > 0:
            value += cut[i] / touching[i]
    return float(value)


def ncut_embedding(adjacency, k: int) -> np.ndarray:
    """Row-normalised eigenvectors of the k smallest L_sym eigenvalues."""
    __, vectors, __ = smallest_eigenpairs(normalized_laplacian(adjacency), k)
    return row_normalize(vectors)


def _ncut_bipartition(meta_adj: np.ndarray, rng) -> np.ndarray:
    """Two-way normalized-cut split of a (small, dense) meta-graph."""
    n = meta_adj.shape[0]
    if n == 2:
        return np.array([0, 1])
    z = ncut_embedding(meta_adj, 2)
    labels = kmeans(z, 2, n_init=3, seed=rng).labels
    if labels.max() == 0:
        degrees = meta_adj.sum(axis=1)
        labels = np.zeros(n, dtype=int)
        labels[int(np.argmin(degrees))] = 1
    return labels


class NcutPartitioner:
    """k-way normalized cut partitioner mirroring the alpha-Cut API.

    Parameters
    ----------
    k:
        Desired number of partitions.
    exact_k:
        Reduce the k' connected eigen-partitions to exactly k.
    n_init:
        k-means restarts in eigenspace.
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        k: int,
        exact_k: bool = True,
        n_init: int = 3,
        seed: RngLike = None,
    ) -> None:
        if k < 1:
            raise PartitioningError(f"k must be positive, got {k}")
        self._k = int(k)
        self._exact_k = bool(exact_k)
        self._n_init = int(n_init)
        self._seed = seed

    def partition(
        self, graph: Union[Graph, Supergraph, sp.spmatrix, np.ndarray]
    ) -> np.ndarray:
        """Partition ``graph``; returns node labels (expanded for supergraphs)."""
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

        if self._k == 1:
            labels = np.zeros(n, dtype=int)
        elif self._k == n:
            labels = np.arange(n, dtype=int)
        else:
            z = ncut_embedding(adjacency, self._k)
            labels = kmeans(z, self._k, n_init=self._n_init, seed=rng).labels
            labels = _densify(connected_components(adjacency, labels=labels))

        k_prime = int(labels.max()) + 1
        if self._exact_k and k_prime > self._k:
            meta = partition_connectivity_matrix(adjacency, labels)
            groups = recursive_bipartition(
                meta, self._k, seed=rng, bipartition_fn=_ncut_bipartition
            )
            labels = groups[labels]
            labels = repair_connectivity(adjacency, labels, self._k)

        if supergraph is not None:
            return supergraph.expand_partition(labels)
        return labels


def ncut_partition(graph, k: int, seed: RngLike = None) -> np.ndarray:
    """One-shot normalized-cut partitioning; returns the label vector."""
    return NcutPartitioner(k, seed=seed).partition(graph)
