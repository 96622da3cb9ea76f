"""An undirected, weighted graph stored as a CSR adjacency matrix.

The road graph (Definition 2) and the road supergraph (Definition 8)
are both instances of this structure: nodes carry a scalar feature
value (traffic density / supernode mean density) and edges carry a
weight (1.0 for the binary road graph, the Gaussian similarity of
Equation 3 for superlinks).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError


class Graph:
    """Undirected weighted graph over nodes ``0..n-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes. Node ids are dense integers starting at 0.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, weight)`` tuples. Duplicate
        edges are merged by summing weights; self-loops are rejected
        (a road segment is never adjacent to itself in the dual).
    features:
        Optional per-node scalar feature values (traffic densities).

    Notes
    -----
    The adjacency matrix is stored once in CSR form and shared by all
    queries; construction is O(m log m), neighbour queries O(deg).
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Tuple] = (),
        features: Optional[Sequence[float]] = None,
    ) -> None:
        if n_nodes < 0:
            raise GraphError(f"n_nodes must be non-negative, got {n_nodes}")
        self._n = int(n_nodes)

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise GraphError(f"edge must be (u, v) or (u, v, w), got {edge!r}")
            u, v = int(u), int(v)
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphError(f"edge ({u}, {v}) out of range for {self._n} nodes")
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
            w = float(w)
            if w < 0:
                raise GraphError(f"edge ({u}, {v}) has negative weight {w}")
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((w, w))

        adj = sp.csr_matrix(
            (np.asarray(vals, dtype=float), (rows, cols)), shape=(self._n, self._n)
        )
        adj.sum_duplicates()
        self._adj = adj

        self._features = _node_features(features, self._n)

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(
        cls, adjacency, features: Optional[Sequence[float]] = None
    ) -> "Graph":
        """Build a graph from a (dense or sparse) symmetric adjacency matrix."""
        adj = sp.csr_matrix(adjacency, dtype=float)
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got {adj.shape}")
        if (abs(adj - adj.T) > 1e-12).nnz:
            raise GraphError("adjacency matrix must be symmetric")
        if adj.diagonal().any():
            adj = adj.tolil()
            adj.setdiag(0.0)
            adj = adj.tocsr()
        if adj.nnz and adj.data.min() < 0:
            raise GraphError("adjacency matrix must be non-negative")
        adj.eliminate_zeros()
        return cls._trusted(adj, features)

    @classmethod
    def _trusted(cls, adj: sp.csr_matrix, features: Optional[Sequence[float]]) -> "Graph":
        """A graph over ``adj`` as given: a float CSR matrix that is
        symmetric, non-negative, zero-diagonal and without explicit
        zeros by construction, so none of that is checked again. Only
        the feature vector is checked (and copied)."""
        graph = cls.__new__(cls)
        graph._n = adj.shape[0]
        graph._adj = adj
        graph._features = _node_features(features, graph._n)
        return graph

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self._adj.nnz // 2

    @property
    def features(self) -> np.ndarray:
        """Read-only view of per-node feature values."""
        view = self._features.view()
        view.flags.writeable = False
        return view

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The symmetric CSR adjacency matrix (do not mutate)."""
        return self._adj

    def degree(self) -> np.ndarray:
        """Weighted degree (row sums of the adjacency matrix)."""
        return np.asarray(self._adj.sum(axis=1)).ravel()

    def neighbors(self, node: int) -> np.ndarray:
        """Node ids adjacent to ``node``."""
        if not (0 <= node < self._n):
            raise GraphError(f"node {node} out of range for {self._n} nodes")
        return self._adj.indices[self._adj.indptr[node] : self._adj.indptr[node + 1]]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v), or 0.0 if absent."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(f"edge ({u}, {v}) out of range for {self._n} nodes")
        return float(self._adj[u, v])

    def has_edge(self, u: int, v: int) -> bool:
        """True when an edge with non-zero weight joins ``u`` and ``v``."""
        return self.edge_weight(u, v) != 0.0

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        coo = self._adj.tocoo()
        for u, v, w in zip(coo.row, coo.col, coo.data):
            if u < v:
                yield int(u), int(v), float(w)

    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge counted once)."""
        return float(self._adj.sum()) / 2.0

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns
        -------
        (graph, index):
            ``graph`` has nodes relabelled ``0..len(nodes)-1`` in the
            order given; ``index`` maps new ids back to original ids.
        """
        # arrays go straight through; other iterables (generators, sets)
        # are materialised first, since numpy cannot size them
        idx = np.array(
            nodes if isinstance(nodes, np.ndarray) else list(nodes), dtype=int
        )
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise GraphError("subgraph nodes out of range")
        # a strictly increasing selection is unique; others pay a sort
        if not (np.diff(idx) > 0).all() and np.unique(idx).size != idx.size:
            raise GraphError("subgraph nodes must be unique")
        # an induced subgraph of this validated graph is symmetric,
        # non-negative, zero-diagonal and free of explicit zeros
        sub = self._adj[idx][:, idx]
        return Graph._trusted(sub, self._features[idx]), idx

    def with_features(self, features: Sequence[float]) -> "Graph":
        """Copy of this graph with replaced node features.

        The copy shares this graph's adjacency, which was validated
        when this graph was built; only the feature vector is checked
        (and copied).
        """
        return Graph._trusted(self._adj, features)

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self._n}, n_edges={self.n_edges})"


def _node_features(features: Optional[Sequence[float]], n: int) -> np.ndarray:
    """A private float copy of ``features`` (zeros when None), checked
    for shape and for finite values."""
    if features is None:
        return np.zeros(n, dtype=float)
    feats = np.asarray(features, dtype=float)
    if feats.shape != (n,):
        raise GraphError(f"features must have shape ({n},), got {feats.shape}")
    if not np.isfinite(feats).all():
        bad = int(np.flatnonzero(~np.isfinite(feats))[0])
        raise GraphError(f"features must be finite; node {bad} has {feats[bad]}")
    return feats.copy()
