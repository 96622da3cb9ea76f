"""Graph kernel: CSR-backed weighted graphs and basic graph algorithms.

This subpackage is the in-house substrate the partitioning framework
runs on. It intentionally avoids third-party graph libraries: the paper
stores the road graph as a sparse binary adjacency matrix and runs a
FIFO (breadth-first) connected-components pass over it, so we keep
that on :mod:`scipy.sparse` storage, with the components computed by
:mod:`scipy.sparse.csgraph` and numbered in the BFS discovery order.
"""

from repro.graph.adjacency import Graph
from repro.graph.critical import (
    articulation_points,
    bridges,
    critical_segments,
)
from repro.graph.components import (
    connected_components,
    constrained_components,
    count_constrained_components,
    is_connected,
)
from repro.graph.laplacian import (
    AlphaCutOperator,
    alpha_cut_matrix,
    degree_matrix,
    degree_vector,
    laplacian_matrix,
    modularity_matrix,
    normalized_laplacian,
)

__all__ = [
    "Graph",
    "connected_components",
    "constrained_components",
    "count_constrained_components",
    "is_connected",
    "degree_vector",
    "degree_matrix",
    "laplacian_matrix",
    "normalized_laplacian",
    "modularity_matrix",
    "alpha_cut_matrix",
    "AlphaCutOperator",
    "bridges",
    "articulation_points",
    "critical_segments",
]
