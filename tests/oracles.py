"""Loop-based reference implementations kept as test oracles.

These are the straightforward per-item versions of library functions
that the library now computes with whole-array passes. Tests assert
that the fast versions return exactly the same arrays.
``graphs_with_labels`` draws the random inputs those tests compare on.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.components import constrained_components
from repro.supergraph.supernode import Supernode


def connected_components_bfs(adjacency, labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """The paper's FIFO BFS: ids in discovery order from node 0 upward.

    With ``labels``, an edge only connects nodes sharing a label.
    """
    adj = sp.csr_matrix(adjacency)
    n = adj.shape[0]
    comp = np.full(n, -1, dtype=int)
    indptr, indices = adj.indptr, adj.indices
    current = 0
    queue: deque = deque()
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = current
        queue.append(start)
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if comp[v] != -1:
                    continue
                if labels is not None and labels[v] != labels[u]:
                    continue
                comp[v] = current
                queue.append(v)
        current += 1
    return comp


def create_supernodes_loop(
    adjacency,
    labels: Sequence[int],
    cluster_means: Optional[Sequence[float]] = None,
    features: Optional[Sequence[float]] = None,
) -> List[Supernode]:
    """One ``comp == cid`` scan per supernode."""
    labels = np.asarray(labels, dtype=int)
    comp = constrained_components(adjacency, labels)
    n_comp = int(comp.max()) + 1 if comp.size else 0
    feats = None if features is None else np.asarray(features, dtype=float)
    means = None if cluster_means is None else np.asarray(cluster_means, dtype=float)

    supernodes: List[Supernode] = []
    for cid in range(n_comp):
        members = np.flatnonzero(comp == cid)
        if means is not None:
            cluster = int(labels[members[0]])
            if cluster >= means.size:
                raise GraphError(
                    f"cluster index {cluster} out of range for "
                    f"{means.size} cluster means"
                )
            feature = float(means[cluster])
        else:
            feature = float(feats[members].mean())
        supernodes.append(Supernode(cid, members, feature))
    return supernodes


def membership_vector_loop(supernodes: Sequence[Supernode], n_nodes: int) -> np.ndarray:
    """One scatter per supernode, checking overlap as it goes."""
    out = np.full(n_nodes, -1, dtype=int)
    for sn in supernodes:
        if (out[sn.members] != -1).any():
            raise GraphError("supernodes overlap")
        out[sn.members] = sn.id
    if (out == -1).any():
        missing = int((out == -1).sum())
        raise GraphError(f"{missing} nodes not covered by any supernode")
    return out


def partition_connectivity_matrix_loop(adjacency, labels) -> np.ndarray:
    """RMS cross-partition superlink weight, one superlink at a time."""
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    k = int(lab.max()) + 1 if lab.size else 0

    sum_sq = np.zeros((k, k))
    count = np.zeros((k, k))
    coo = adj.tocoo()
    for u, v, w in zip(coo.row, coo.col, coo.data):
        if u >= v:
            continue
        i, j = int(lab[u]), int(lab[v])
        if i == j:
            continue
        sum_sq[i, j] += w * w
        sum_sq[j, i] += w * w
        count[i, j] += 1
        count[j, i] += 1

    out = np.zeros((k, k))
    mask = count > 0
    out[mask] = np.sqrt(sum_sq[mask] / count[mask])
    return out


@st.composite
def graphs_with_labels(draw, max_nodes: int = 40, max_labels: int = 4):
    """A symmetric weighted CSR adjacency (possibly disconnected, possibly
    edgeless) and a label per node in ``0..max_labels-1``."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = sp.csr_matrix((weights + weights, (rows, cols)), shape=(n, n), dtype=float)
    labels = np.array(draw(st.lists(st.integers(0, max_labels - 1), min_size=n, max_size=n)))
    return adj, labels
