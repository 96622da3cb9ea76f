"""Multilevel graph partitioning (METIS-style, from scratch).

The related-work family the paper cites for large graphs: coarsen the
graph with heavy-edge matching until it is small, partition the
coarsest graph (recursive spectral bisection here), then project back
level by level, refining each bipartition with Kernighan-Lin. Exposed
as :class:`MultilevelPartitioner` with the same interface as the other
partitioners so it can serve as an additional baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.baselines.kernighan_lin import kernighan_lin_refine
from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import laplacian_matrix
from repro.util.rng import RngLike, ensure_rng


def heavy_edge_matching(adjacency, rng: np.random.Generator) -> np.ndarray:
    """Greedy heavy-edge matching: map each node to a coarse node id.

    Nodes are visited in random order; an unmatched node merges with
    its unmatched neighbour of maximum edge weight (or stays alone).
    Returns the coarse id per fine node, dense 0..n_coarse-1.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    n = adj.shape[0]
    match = np.full(n, -1, dtype=int)
    indptr, indices, data = adj.indptr, adj.indices, adj.data

    for v in rng.permutation(n):
        if match[v] != -1:
            continue
        best_u, best_w = -1, 0.0
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] == -1 and u != v and data[idx] > best_w:
                best_u, best_w = u, data[idx]
        if best_u >= 0:
            match[v] = best_u
            match[best_u] = v
        else:
            match[v] = v

    coarse_of = np.full(n, -1, dtype=int)
    next_id = 0
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        coarse_of[v] = next_id
        partner = match[v]
        if partner != v:
            coarse_of[partner] = next_id
        next_id += 1
    return coarse_of


def coarsen(adjacency, coarse_of: np.ndarray) -> sp.csr_matrix:
    """Contract the graph along a matching; edge weights accumulate."""
    adj = sp.coo_matrix(adjacency, dtype=float)
    n_coarse = int(coarse_of.max()) + 1
    rows = coarse_of[adj.row]
    cols = coarse_of[adj.col]
    keep = rows != cols  # drop collapsed self-loops
    out = sp.csr_matrix(
        (adj.data[keep], (rows[keep], cols[keep])), shape=(n_coarse, n_coarse)
    )
    out.sum_duplicates()
    return out


@dataclass
class _Level:
    adjacency: sp.csr_matrix
    coarse_of: Optional[np.ndarray]  # None at the coarsest level


class MultilevelPartitioner:
    """METIS-style multilevel k-way partitioner.

    Parameters
    ----------
    k:
        Number of partitions (recursive bisection, so any k >= 1).
    coarsest_size:
        Stop coarsening when the graph has at most this many nodes.
    balance_tolerance:
        KL balance tolerance per bisection.
    seed:
        Reproducibility seed (matching order + spectral k-means).
    """

    def __init__(
        self,
        k: int,
        coarsest_size: int = 64,
        balance_tolerance: float = 0.3,
        seed: RngLike = None,
    ) -> None:
        if k < 1:
            raise PartitioningError(f"k must be positive, got {k}")
        if coarsest_size < 4:
            raise PartitioningError(
                f"coarsest_size must be >= 4, got {coarsest_size}"
            )
        self._k = int(k)
        self._coarsest = int(coarsest_size)
        self._tolerance = float(balance_tolerance)
        self._seed = seed

    def partition(self, graph) -> np.ndarray:
        """Partition ``graph`` (Graph or adjacency) into k parts."""
        if isinstance(graph, Graph):
            adjacency = graph.adjacency
        else:
            adjacency = sp.csr_matrix(graph, dtype=float)
        n = adjacency.shape[0]
        if self._k > n:
            raise PartitioningError(
                f"cannot split {n} nodes into k={self._k} partitions"
            )
        rng = ensure_rng(self._seed)
        return self._kway(adjacency, np.arange(n), self._k, rng)

    # ------------------------------------------------------------------
    def _kway(
        self,
        adjacency: sp.csr_matrix,
        nodes: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Recursive bisection over the induced subgraph on ``nodes``."""
        labels = np.zeros(adjacency.shape[0], dtype=int)
        if k == 1:
            return labels
        side = self._bisect(adjacency, rng)
        left = np.flatnonzero(side == 0)
        right = np.flatnonzero(side == 1)
        if left.size == 0 or right.size == 0:
            # degenerate bisection: fall back to a balanced random split
            perm = rng.permutation(adjacency.shape[0])
            half = adjacency.shape[0] // 2
            side = np.zeros(adjacency.shape[0], dtype=int)
            side[perm[half:]] = 1
            left = np.flatnonzero(side == 0)
            right = np.flatnonzero(side == 1)

        k_left = k // 2 + k % 2
        k_right = k // 2
        k_left = min(k_left, left.size)
        k_right = min(k_right, right.size)
        if k_left + k_right < k:  # redistribute if one side too small
            if left.size - k_left > 0:
                k_left = min(left.size, k - k_right)
            k_right = k - k_left

        sub_left = adjacency[left][:, left]
        sub_right = adjacency[right][:, right]
        labels_left = self._kway(sub_left, left, k_left, rng)
        labels_right = self._kway(sub_right, right, k_right, rng)
        labels[left] = labels_left
        labels[right] = labels_right + k_left
        return labels

    def _bisect(
        self, adjacency: sp.csr_matrix, rng: np.random.Generator
    ) -> np.ndarray:
        """One multilevel bisection: coarsen, split, uncoarsen + refine."""
        levels: List[_Level] = [_Level(adjacency, None)]
        current = adjacency
        while current.shape[0] > self._coarsest:
            coarse_of = heavy_edge_matching(current, rng)
            if int(coarse_of.max()) + 1 >= current.shape[0]:
                break  # matching made no progress (e.g. edgeless graph)
            current = coarsen(current, coarse_of)
            levels[-1].coarse_of = coarse_of
            levels.append(_Level(current, None))

        side = self._initial_bisection(current, rng)

        for level in reversed(levels[:-1]):
            side = side[level.coarse_of]  # project to the finer level
            side = kernighan_lin_refine(
                level.adjacency,
                side,
                balance_tolerance=self._tolerance,
            )
        return side

    def _initial_bisection(
        self, adjacency: sp.csr_matrix, rng: np.random.Generator
    ) -> np.ndarray:
        """Balanced spectral bisection of the coarsest graph.

        Splits at the median of the Fiedler vector (second-smallest
        Laplacian eigenvector), which guarantees a balanced start, then
        refines with Kernighan-Lin under the balance tolerance.
        """
        n = adjacency.shape[0]
        if n <= 2:
            return np.arange(n, dtype=int) % 2
        __, vectors, __ = smallest_eigenpairs(laplacian_matrix(adjacency), 2)
        fiedler = vectors[:, 1]
        order = np.argsort(fiedler, kind="stable")
        labels = np.zeros(n, dtype=int)
        labels[order[n // 2 :]] = 1
        return kernighan_lin_refine(
            adjacency, labels, balance_tolerance=self._tolerance
        )
