"""Reducing k' partitions to exactly k (Algorithm 3, lines 12-24).

The spectral stage may emit k' > k connected partitions. The paper's
preferred reduction is **global recursive bipartitioning**: build a
k' x k' partition-connectivity matrix A' whose entries are the RMS of
the superlink weights joining two partitions, treat the partitions as
meta-nodes, and recursively bipartition with alpha-Cut (FIFO queue)
until exactly k groups remain. The **greedy pruning** alternative
(merge the adjacent pair whose merge best improves the cut, repeat) is
provided for the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

import numpy as np
import scipy.sparse as sp

from repro.core.alpha_cut import alpha_cut_value
from repro.exceptions import PartitioningError
from repro.obs.metrics import incr
from repro.util.rng import RngLike, ensure_rng


def partition_connectivity_matrix(adjacency, labels) -> np.ndarray:
    """The k' x k' connectivity matrix A' between partitions.

    ``A'(i, j) = sqrt( (1/numadj(P_i, P_j)) * sum A(p, q)^2 )`` over the
    supernode pairs (p in P_i, q in P_j) joined by a superlink; zero
    for non-adjacent partitions and on the diagonal.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (adj.shape[0],):
        raise PartitioningError(
            f"labels must have shape ({adj.shape[0]},), got {lab.shape}"
        )
    k = int(lab.max()) + 1 if lab.size else 0

    coo = adj.tocoo()
    i, j = lab[coo.row], lab[coo.col]
    cross = (coo.row < coo.col) & (i != j)
    i, j, w = i[cross], j[cross], coo.data[cross]
    # cell keys (i, j) and (j, i) interleaved per superlink: bincount
    # adds in input order, so each cell sums its terms in superlink
    # order and the matrix is exactly symmetric
    keys = np.column_stack((i * k + j, j * k + i)).ravel()
    sq = np.repeat(w * w, 2)
    sum_sq = np.bincount(keys, weights=sq, minlength=k * k).reshape(k, k)
    count = np.bincount(keys, minlength=k * k).reshape(k, k)

    out = np.zeros((k, k))
    mask = count > 0
    out[mask] = np.sqrt(sum_sq[mask] / count[mask])
    return out


def _bipartition(meta_adj: np.ndarray, seed) -> np.ndarray:
    """Split the meta-graph into exactly two non-empty groups via alpha-Cut."""
    # local import to avoid a circular dependency with spectral.py
    from repro.core.spectral import spectral_partition

    n = meta_adj.shape[0]
    if n < 2:
        raise PartitioningError("cannot bipartition fewer than 2 meta-nodes")
    if n == 2:
        return np.array([0, 1])
    labels = spectral_partition(
        meta_adj, 2, extract_components=False, seed=seed
    )
    if labels.max() == 0:
        # degenerate k-means collapse: peel off the weakest-attached node
        degrees = meta_adj.sum(axis=1)
        labels = np.zeros(n, dtype=int)
        labels[int(np.argmin(degrees))] = 1
    return labels


def recursive_bipartition(
    meta_adjacency,
    k: int,
    seed: RngLike = None,
    bipartition_fn=None,
) -> np.ndarray:
    """Group k' meta-nodes into exactly k groups (lines 12-24).

    Parameters
    ----------
    meta_adjacency:
        The partition-connectivity matrix A' (k' x k').
    k:
        Required number of final groups, 1 <= k <= k'.
    seed:
        Reproducibility seed for the spectral bipartitions.
    bipartition_fn:
        Optional callable ``(meta_adj, rng) -> labels in {0, 1}`` used
        to split each group; defaults to the alpha-Cut spectral
        bipartition. Baselines pass their own cut here so the
        reduction stage matches the cut being evaluated.

    Returns
    -------
    numpy.ndarray: group index per meta-node, dense 0..k-1.
    """
    meta_adj = np.asarray(
        meta_adjacency.toarray()
        if sp.issparse(meta_adjacency)
        else meta_adjacency,
        dtype=float,
    )
    k_prime = meta_adj.shape[0]
    if meta_adj.shape != (k_prime, k_prime):
        raise PartitioningError(f"meta adjacency must be square, got {meta_adj.shape}")
    if not 1 <= k <= k_prime:
        raise PartitioningError(f"need 1 <= k <= k'={k_prime}, got k={k}")
    rng = ensure_rng(seed)
    if bipartition_fn is None:
        bipartition_fn = _bipartition

    done: List[np.ndarray] = []
    queue: Deque[np.ndarray] = deque([np.arange(k_prime)])
    while len(done) + len(queue) < k:
        # find the next splittable group (FIFO, skipping singletons)
        group = None
        skipped: List[np.ndarray] = []
        while queue:
            candidate = queue.popleft()
            if candidate.size >= 2:
                group = candidate
                break
            skipped.append(candidate)
        for s in skipped:
            done.append(s)
        if group is None:
            raise PartitioningError(
                f"cannot reach k={k} groups: only singletons remain"
            )
        sub = meta_adj[np.ix_(group, group)]
        side = bipartition_fn(sub, rng)
        incr("refine.bipartitions")
        queue.append(group[side == 0])
        queue.append(group[side == 1])

    done.extend(queue)
    labels = np.empty(k_prime, dtype=int)
    for gid, group in enumerate(done):
        labels[group] = gid
    return labels


def greedy_prune(
    adjacency,
    labels,
    k: int,
) -> np.ndarray:
    """Merge adjacent partitions greedily until k remain (the alternative).

    At each step every spatially-adjacent partition pair is trial
    merged and the merge giving the lowest alpha-Cut value on the full
    (super)graph is kept. Computationally heavier than recursive
    bipartitioning for large k' — exactly the trade-off the paper
    cites for preferring the recursive approach.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int).copy()
    k_prime = int(lab.max()) + 1 if lab.size else 0
    if not 1 <= k <= k_prime:
        raise PartitioningError(f"need 1 <= k <= k'={k_prime}, got k={k}")

    current = lab
    while int(current.max()) + 1 > k:
        n_parts = int(current.max()) + 1
        meta = partition_connectivity_matrix(adj, current)
        best_value = None
        best_pair = None
        for i in range(n_parts):
            for j in range(i + 1, n_parts):
                if meta[i, j] <= 0:
                    continue
                trial = np.where(current == j, i, current)
                trial = _dense_labels(trial)
                value = alpha_cut_value(adj, trial)
                if best_value is None or value < best_value:
                    best_value = value
                    best_pair = (i, j)
        if best_pair is None:
            # no adjacent pairs left (disconnected graph): merge smallest two
            sizes = np.bincount(current, minlength=n_parts)
            order = np.argsort(sizes)
            best_pair = (int(order[0]), int(order[1]))
        i, j = min(best_pair), max(best_pair)
        current = _dense_labels(np.where(current == j, i, current))
        incr("refine.greedy_merges")
    return current


def _dense_labels(labels: np.ndarray) -> np.ndarray:
    __, dense = np.unique(labels, return_inverse=True)
    return dense.astype(int)


def repair_connectivity(adjacency, labels, k: int) -> np.ndarray:
    """Make every partition connected while keeping exactly k of them.

    Recursive bipartitioning groups *partitions* (meta-nodes) and can
    therefore place non-adjacent partitions in one final group,
    violating condition C.2. This repair splits every final partition
    into its connected components and then merges the smallest
    component into its most strongly connected neighbouring component
    until exactly ``k`` remain. Merging along an edge preserves
    connectivity, so the result satisfies C.2 (provided the graph
    itself has at most k connected components).
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (adj.shape[0],):
        raise PartitioningError(
            f"labels must have shape ({adj.shape[0]},), got {lab.shape}"
        )
    from repro.graph.components import connected_components

    comp = _dense_labels(connected_components(adj, labels=lab))
    n_comp = int(comp.max()) + 1
    if n_comp <= k:
        return comp

    coo = adj.tocoo()
    while n_comp > k:
        sizes = np.bincount(comp, minlength=n_comp)
        # connectivity weight between components: one sum per component
        # pair, over the cross entries in COO order
        a, b = comp[coo.row], comp[coo.col]
        cross = a != b
        lo = np.minimum(a[cross], b[cross])
        hi = np.maximum(a[cross], b[cross])
        keys, inverse = np.unique(lo * n_comp + hi, return_inverse=True)
        weight = np.bincount(inverse, weights=coo.data[cross], minlength=keys.size)
        lo, hi = keys // n_comp, keys % n_comp
        # each component's strongest neighbour, ties to the larger id:
        # the last entry per component when sorted by (weight, neighbour)
        comps = np.concatenate((lo, hi))
        others = np.concatenate((hi, lo))
        by = np.lexsort((others, np.concatenate((weight, weight)), comps))
        comps, others = comps[by], others[by]
        last = np.ones(by.size, dtype=bool)
        last[:-1] = comps[1:] != comps[:-1]
        best = np.full(n_comp, -1)
        best[comps[last]] = others[last]

        order = np.argsort(sizes)
        candidates = order[best[order] >= 0]
        if candidates.size:
            smallest = candidates[0]
            comp = _dense_labels(np.where(comp == smallest, best[smallest], comp))
        else:
            # graph has more connected components than k: merge the two
            # smallest anyway (C.2 is unsatisfiable, keep the contract
            # of exactly k partitions)
            a, b = int(order[0]), int(order[1])
            comp = _dense_labels(np.where(comp == a, b, comp))
        incr("refine.connectivity_merges")
        n_comp = int(comp.max()) + 1
    return comp
