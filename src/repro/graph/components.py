"""Connected-components algorithms over CSR adjacency.

The paper uses "the standard FIFO based connected components
identification algorithm" (Section 4.3.1) in two places:

* plain components of a graph (checking partition connectivity, C.2);
* *constrained* components — nodes count as connected only when they
  are adjacent in the road graph **and** share a k-means cluster label.
  Those constrained components are exactly the supernodes.

Both run through :func:`scipy.sparse.csgraph.connected_components`
(C, O(n + m)). Labels are then renumbered in order of each
component's lowest node, which is the id order a FIFO BFS started
from node 0 upward produces; ``tests/oracles.py`` keeps that BFS as
the reference the tests compare against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.exceptions import GraphError


def _as_csr(adjacency) -> sp.csr_matrix:
    adj = sp.csr_matrix(adjacency)
    if adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got {adj.shape}")
    return adj


def _same_label_edges(adj: sp.csr_matrix, labels: Optional[Sequence[int]]) -> sp.csr_matrix:
    """``adj`` restricted to edges whose endpoints share a label."""
    if labels is None:
        return adj
    n = adj.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise GraphError(f"labels must have shape ({n},), got {labels.shape}")
    # filter straight on the CSR arrays; the row order is kept
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    keep = labels[rows] == labels[adj.indices]
    kept = np.concatenate(([0], np.cumsum(keep)))
    return sp.csr_matrix(
        (adj.data[keep], adj.indices[keep], kept[adj.indptr]), shape=adj.shape
    )


def connected_components(adjacency, labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """Component id per node.

    Parameters
    ----------
    adjacency:
        Symmetric (sparse or dense) adjacency matrix.
    labels:
        Optional per-node cluster labels. When given, an edge (u, v)
        only connects u and v if ``labels[u] == labels[v]`` — this is
        the constrained variant used for supernode creation.

    Returns
    -------
    numpy.ndarray of int:
        ``out[i]`` is the component id of node ``i``; ids are dense and
        numbered by each component's lowest node (the FIFO BFS
        discovery order from node 0 upward).
    """
    adj = _same_label_edges(_as_csr(adjacency), labels)
    n = adj.shape[0]
    n_comp, raw = _csgraph_components(adj, directed=False)
    # renumber by each component's lowest node, the order in which a
    # BFS started from successive unvisited nodes discovers them
    first = np.full(n_comp, n)
    np.minimum.at(first, raw, np.arange(n))
    rank = np.empty(n_comp, dtype=int)
    rank[np.argsort(first)] = np.arange(n_comp)
    return rank[raw]


def constrained_components(adjacency, labels: Sequence[int]) -> np.ndarray:
    """Components of the subgraph keeping only same-label edges.

    This implements line 13 of Algorithm 1: nodes are "directly
    connected if they are grouped in the same cluster by k-means and
    are adjacent as well in the actual road network".
    """
    if labels is None:
        raise GraphError("constrained_components requires labels")
    return connected_components(adjacency, labels=labels)


def count_constrained_components(adjacency, labels: Sequence[int]) -> int:
    """Number of constrained components for ``(labels, adjacency)``.

    Used to pick, among the MCG-shortlisted clustering configurations,
    the one producing the fewest supernodes (Algorithm 1, lines 10-16).
    Only the count is computed, so no ids are renumbered. Edges are
    undirected: one triangle of the adjacency (``scipy.sparse.triu``)
    gives the same count as the full matrix for half the filtering.
    """
    if labels is None:
        raise GraphError("count_constrained_components requires labels")
    adj = _same_label_edges(_as_csr(adjacency), labels)
    return int(_csgraph_components(adj, directed=False, return_labels=False))


def is_connected(adjacency, nodes: Optional[Sequence[int]] = None) -> bool:
    """True when the graph (or the induced subgraph on ``nodes``) is connected.

    ``nodes`` is read as a set: repeated ids count once. An empty node
    set and a single node both count as connected; an id outside
    ``0..n-1`` raises :class:`GraphError`.
    """
    adj = _as_csr(adjacency)
    if nodes is not None:
        idx = np.unique(np.asarray(list(nodes), dtype=int))
        if idx.size and (idx[0] < 0 or idx[-1] >= adj.shape[0]):
            raise GraphError(
                f"node ids must lie in [0, {adj.shape[0]}), got "
                f"{idx[0] if idx[0] < 0 else idx[-1]}"
            )
        adj = adj[idx][:, idx]
    if adj.shape[0] <= 1:
        return True
    return int(_csgraph_components(adj, directed=False, return_labels=False)) == 1
