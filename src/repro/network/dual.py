"""Dual transform: road network → road graph (Definition 2).

Each directed road segment becomes a node of the undirected *road
graph*; two nodes are linked when their segments share at least one
intersection point. Star-topology junctions therefore become cliques
in the dual while linear chains of segments stay linear, exactly as
described in Section 2.1 of the paper. The node feature value is the
segment's traffic density.

The transform is module 1 of the framework and must scale to the
paper's largest networks (80k+ segments), so the production path is
fully vectorized: with B the |I| x |R| intersection/segment incidence
matrix, the Gram product ``B.T @ B`` has a non-zero at (j, k) exactly
when segments j and k share an intersection, which yields every
adjacent pair in one sparse matrix product instead of per-junction
Python clique loops; without its diagonal, the product is the road
graph's adjacency matrix itself. The original set-based formulation
and the pair-list assembly it replaced live on in ``tests/oracles.py``
for equivalence testing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import Graph
from repro.network.model import RoadNetwork
from repro.util.timer import ModuleTimer


def _road_graph_adjacency(network: RoadNetwork) -> sp.csr_matrix:
    """The road graph's 0/1 adjacency: CSR, sorted int32 indices.

    With B the incidence matrix (intersections x segments, one column
    per segment with ones at its two endpoints), ``B.T @ B`` is
    non-zero at (j, k) exactly when segments j and k share an
    intersection; the two directions of a two-way street share both
    endpoints and sum into one entry. Dropping its diagonal (each
    segment meets itself) and setting every entry to 1 gives the
    adjacency directly, already symmetric.
    """
    m = network.n_segments
    src, tgt = network.segment_endpoint_ids()
    incidence_t = sp.csr_matrix(
        (np.ones(2 * m), np.column_stack((src, tgt)).ravel(), np.arange(0, 2 * m + 1, 2)),
        shape=(m, network.n_intersections),
    )
    gram = incidence_t @ incidence_t.T
    gram.sort_indices()
    rows = np.repeat(np.arange(m, dtype=gram.indices.dtype), np.diff(gram.indptr))
    indices = gram.indices[gram.indices != rows]
    # every row holds exactly one diagonal entry, so row j starts j earlier
    indptr = gram.indptr - np.arange(m + 1, dtype=gram.indptr.dtype)
    adjacency = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(m, m))
    adjacency.has_sorted_indices = True
    return adjacency


def segment_adjacency(network: RoadNetwork) -> List[Tuple[int, int]]:
    """Adjacent segment-id pairs (u < v) sharing an intersection.

    The pair (r_j, r_k) is adjacent when some intersection ι is an
    endpoint (source or target) of both segments. The two directions of
    a two-way street share both endpoints and are hence adjacent.

    Read row by row off the upper triangle of the road-graph adjacency,
    so the list is sorted; it equals the set-based loop in
    ``tests/oracles.py``.
    """
    adjacency = _road_graph_adjacency(network)
    rows = np.repeat(np.arange(network.n_segments), np.diff(adjacency.indptr))
    upper = rows < adjacency.indices
    return list(zip(rows[upper].tolist(), adjacency.indices[upper].tolist()))


def build_road_graph(
    network: RoadNetwork, timer: Optional[ModuleTimer] = None
) -> Graph:
    """Construct the road graph G = (V, E) dual to ``network``.

    Returns a :class:`repro.graph.Graph` whose node ``i`` is road
    segment ``i``, whose edges are binary adjacency links, and whose
    node features are the segment traffic densities r_i.d. The sparse
    adjacency is the incidence Gram product without its diagonal,
    skipping the per-edge Python loop of the tuple-based constructor.

    Parameters
    ----------
    network:
        The road network to transform.
    timer:
        Optional :class:`ModuleTimer` receiving the fine-grained
        ``module1.adjacency`` and ``module1.graph`` timings.
    """
    own_timer = timer if timer is not None else ModuleTimer()
    with own_timer.time("module1.adjacency"):
        adjacency = _road_graph_adjacency(network)
    with own_timer.time("module1.graph"):
        # symmetric 0/1 without a diagonal by construction (and pinned
        # by tests), so from_adjacency's checks would only re-derive it
        graph = Graph._trusted(adjacency, network.densities())
    return graph
