"""FIFO (breadth-first) connected-components algorithms.

The paper uses "the standard FIFO based connected components
identification algorithm" (Section 4.3.1) in two places:

* plain components of a graph (checking partition connectivity, C.2);
* *constrained* components — nodes count as connected only when they
  are adjacent in the road graph **and** share a k-means cluster label.
  Those constrained components are exactly the supernodes.

Both are implemented here over CSR adjacency, O(n + m).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

UNVISITED = -1


def _as_csr(adjacency) -> sp.csr_matrix:
    adj = sp.csr_matrix(adjacency)
    if adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got {adj.shape}")
    return adj


# above this order, delegate to scipy's C implementation (relabelled to
# our discovery-order convention); below it, the from-scratch FIFO BFS
# is just as fast and stays the reference implementation
_CSGRAPH_CUTOFF = 5000


def connected_components(adjacency, labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """Component id per node via FIFO BFS.

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
        assigned in order of BFS discovery from node 0 upward.

    Notes
    -----
    Large graphs (above ~5k nodes) are routed through
    :func:`scipy.sparse.csgraph.connected_components` and relabelled
    to the same discovery-order ids; the result is identical to the
    BFS, just computed in C.
    """
    adj = _as_csr(adjacency)
    n = adj.shape[0]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise GraphError(f"labels must have shape ({n},), got {labels.shape}")

    if n > _CSGRAPH_CUTOFF:
        return _components_csgraph(adj, labels)

    comp = np.full(n, UNVISITED, dtype=int)
    indptr, indices = adj.indptr, adj.indices
    current = 0
    queue: deque = deque()
    for start in range(n):
        if comp[start] != UNVISITED:
            continue
        comp[start] = current
        queue.append(start)
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if comp[v] != UNVISITED:
                    continue
                if labels is not None and labels[v] != labels[u]:
                    continue
                comp[v] = current
                queue.append(v)
        current += 1
    return comp


def _components_csgraph(
    adj: sp.csr_matrix, labels: Optional[np.ndarray]
) -> np.ndarray:
    """C-speed components with our discovery-order id convention."""
    from scipy.sparse.csgraph import connected_components as _cc

    n = adj.shape[0]
    if labels is not None:
        # keep only same-label edges, straight on the CSR arrays
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        keep = labels[rows] == labels[adj.indices]
        kept = np.concatenate(([0], np.cumsum(keep)))
        adj = sp.csr_matrix(
            (adj.data[keep], adj.indices[keep], kept[adj.indptr]), shape=adj.shape
        )
    n_comp, raw = _cc(adj, directed=False)
    # relabel so ids follow first appearance by node index, matching
    # the BFS discovery order (BFS starts successive components from
    # the lowest-numbered unvisited node)
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
    """
    comp = constrained_components(adjacency, labels)
    return int(comp.max()) + 1 if comp.size else 0


def is_connected(adjacency, nodes: Optional[Sequence[int]] = None) -> bool:
    """True when the graph (or the induced subgraph on ``nodes``) is connected.

    An empty node set and a single node both count as connected.
    """
    adj = _as_csr(adjacency)
    if nodes is not None:
        idx = np.asarray(list(nodes), dtype=int)
        if idx.size == 0:
            return True
        adj = adj[idx][:, idx]
    if adj.shape[0] <= 1:
        return True
    comp = connected_components(adj)
    return int(comp.max()) == 0
