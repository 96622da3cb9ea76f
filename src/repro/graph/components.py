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

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.exceptions import GraphError


class EdgeList(NamedTuple):
    """Each undirected edge of an ``n``-node graph once, as ``u < v``.

    The edges are the upper triangle of the adjacency in CSR order:
    ``indptr`` (length ``n + 1``) frames them by ``u``, and ``u``/``v``
    hold the endpoints. All three arrays are int32.
    """

    n: int
    indptr: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _as_csr(adjacency) -> sp.csr_matrix:
    adj = sp.csr_matrix(adjacency)
    if adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got {adj.shape}")
    return adj


def edge_list(adjacency) -> EdgeList:
    """The :class:`EdgeList` of a symmetric (or upper-triangular) adjacency.

    An :class:`EdgeList` is returned unchanged, so a caller that reads
    the edges several times builds them once and passes them on.
    """
    if isinstance(adjacency, EdgeList):
        return adjacency
    adj = _as_csr(adjacency)
    n = adj.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(adj.indptr))
    upper = rows < adj.indices
    u = rows[upper]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return EdgeList(n, indptr, u, adj.indices[upper].astype(np.int32, copy=False))


def _same_label_graph(edges: EdgeList, labels: Sequence[int]) -> sp.csr_matrix:
    """Upper-triangular CSR of the edges whose endpoints share a label."""
    labels = np.asarray(labels)
    if labels.shape != (edges.n,):
        raise GraphError(f"labels must have shape ({edges.n},), got {labels.shape}")
    # np.take and np.compress skip the index conversion and the mask
    # scan that fancy indexing pays on int32 indices and boolean masks
    keep = np.take(labels, edges.u) == np.take(labels, edges.v)
    kept = np.zeros(keep.size + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return sp.csr_matrix(
        (np.ones(int(kept[-1])), np.compress(keep, edges.v), kept[edges.indptr]),
        shape=(edges.n, edges.n),
    )


def connected_components(adjacency, labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """Component id per node.

    Parameters
    ----------
    adjacency:
        Symmetric (sparse or dense) adjacency matrix; with ``labels``,
        an :class:`EdgeList` as well.
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
    if labels is None:
        return renumber_components(*_csgraph_components(_as_csr(adjacency), directed=False))
    return renumber_components(*label_components(adjacency, labels))


def label_components(adjacency, labels: Sequence[int]) -> Tuple[int, np.ndarray]:
    """Count and raw ids of the constrained components.

    The ids are csgraph's own; :func:`renumber_components` turns them
    into :func:`connected_components`' ids. The supergraph builder
    keeps the pair per shortlisted kappa, so the chosen kappa's
    supernodes need no second component pass.
    """
    n_comp, raw = _csgraph_components(
        _same_label_graph(edge_list(adjacency), labels), directed=False
    )
    return int(n_comp), raw


def renumber_components(n_comp: int, raw: np.ndarray) -> np.ndarray:
    """Renumber component ids by each component's lowest node, the
    order in which a BFS started from successive unvisited nodes
    discovers them."""
    n = raw.size
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
    Only the count is computed, so no ids are renumbered. ``adjacency``
    may be an :class:`EdgeList`: the supergraph builder builds one per
    build and every shortlisted kappa filters the same int32 edge
    arrays by label.
    """
    if labels is None:
        raise GraphError("count_constrained_components requires labels")
    adj = _same_label_graph(edge_list(adjacency), labels)
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
