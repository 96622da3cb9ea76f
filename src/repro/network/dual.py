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
Python clique loops. The original set-based formulation lives on in
``tests/oracles.py`` for equivalence testing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import Graph
from repro.network.model import RoadNetwork
from repro.util.timer import ModuleTimer


def _segment_adjacency_arrays(
    network: RoadNetwork,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adjacent segment-id pairs as two int arrays (u, v), u < v, sorted.

    Builds the sparse incidence matrix B (intersections x segments,
    one column per segment with ones at its two endpoints) and reads
    the adjacency off the upper triangle of ``B.T @ B``. Pairs sharing
    both endpoints (the two directions of a two-way street) collapse
    into a single entry because the sparse product sums duplicates.
    """
    m = network.n_segments
    n = network.n_intersections
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src, tgt = network.segment_endpoint_ids()
    seg_ids = np.arange(m, dtype=np.int64)
    incidence = sp.csr_matrix(
        (
            np.ones(2 * m, dtype=np.float64),
            (np.concatenate([src, tgt]), np.concatenate([seg_ids, seg_ids])),
        ),
        shape=(n, m),
    )
    gram = (incidence.T @ incidence).tocoo()
    upper = gram.row < gram.col
    u = gram.row[upper].astype(np.int64)
    v = gram.col[upper].astype(np.int64)
    order = np.lexsort((v, u))
    return u[order], v[order]


def segment_adjacency(network: RoadNetwork) -> List[Tuple[int, int]]:
    """Adjacent segment-id pairs (u < v) sharing an intersection.

    The pair (r_j, r_k) is adjacent when some intersection ι is an
    endpoint (source or target) of both segments. The two directions of
    a two-way street share both endpoints and are hence adjacent.

    Vectorized via a sparse incidence-matrix product; returns exactly
    the same sorted pair list as the set-based loop in
    ``tests/oracles.py``.
    """
    u, v = _segment_adjacency_arrays(network)
    return list(zip(u.tolist(), v.tolist()))


def build_road_graph(
    network: RoadNetwork, timer: Optional[ModuleTimer] = None
) -> Graph:
    """Construct the road graph G = (V, E) dual to ``network``.

    Returns a :class:`repro.graph.Graph` whose node ``i`` is road
    segment ``i``, whose edges are binary adjacency links, and whose
    node features are the segment traffic densities r_i.d. The sparse
    adjacency is assembled directly from the vectorized pair arrays,
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
        u, v = _segment_adjacency_arrays(network)
    with own_timer.time("module1.graph"):
        m = network.n_segments
        adjacency = sp.csr_matrix(
            (
                np.ones(2 * u.size, dtype=np.float64),
                (np.concatenate([u, v]), np.concatenate([v, u])),
            ),
            shape=(m, m),
        )
        graph = Graph.from_adjacency(adjacency, features=network.densities())
    return graph
