"""Geographic sharding of the segment set.

Shards must be (a) balanced, so processes finish together, and
(b) spatially compact, so the road-graph edges cut by the sharding —
the boundary zones the stitcher has to repair — stay few. A recursive
median kd-split on segment midpoints gives both: each recursion splits
the widest spatial extent at the point median, so shard sizes differ
by at most one and every shard is an axis-aligned cell.

Networks loaded without geometry (a bare :class:`repro.graph.Graph`)
fall back to :func:`structural_shards`: reverse Cuthill–McKee orders
nodes so graph neighbours stay close, and contiguous chunks of that
order make reasonable low-cut shards without any coordinates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.network.model import RoadNetwork


def segment_midpoints(network: RoadNetwork) -> np.ndarray:
    """Midpoint coordinates of every segment, shape ``(m, 2)``.

    The dual transform maps segment ``i`` to road-graph node ``i``, so
    these midpoints are the node coordinates the spatial sharder
    splits on. Same as :meth:`RoadNetwork.segment_midpoints`.
    """
    return network.segment_midpoints()


def spatial_shards(points, n_shards: int) -> np.ndarray:
    """Balanced recursive kd-split: shard label per point.

    Each recursion splits the current cell along its widest axis at
    the point median (stable argsort, so ties break by index and the
    result is deterministic), sending ``floor(k/2)`` of the ``k``
    shards to the lower half. Shard sizes differ by at most one.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates (``d`` >= 1).
    n_shards:
        Number of shards; must satisfy ``1 <= n_shards <= n``.

    Returns
    -------
    ``(n,)`` int array of shard labels in ``0..n_shards-1``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2:
        raise GraphError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= n_shards <= max(n, 1):
        raise GraphError(
            f"need 1 <= n_shards <= n_points, got n_shards={n_shards}, n={n}"
        )
    labels = np.zeros(n, dtype=np.int64)
    if n_shards == 1:
        return labels

    # iterative worklist instead of recursion: (indices, first, last)
    stack = [(np.arange(n), 0, n_shards)]
    while stack:
        idx, lo, hi = stack.pop()
        count = hi - lo
        if count == 1:
            labels[idx] = lo
            continue
        left = count // 2
        spans = pts[idx].max(axis=0) - pts[idx].min(axis=0)
        axis = int(np.argmax(spans))
        order = np.argsort(pts[idx, axis], kind="stable")
        # proportional cut keeps sizes balanced for any shard count;
        # idx.size >= count guarantees both halves stay non-empty
        cut = (idx.size * left) // count
        stack.append((idx[order[:cut]], lo, lo + left))
        stack.append((idx[order[cut:]], lo + left, hi))
    return labels


def structural_shards(adjacency, n_shards: int) -> np.ndarray:
    """Coordinate-free sharding: RCM order cut into contiguous chunks.

    Reverse Cuthill–McKee minimises bandwidth, so consecutive nodes in
    the permutation are close in the graph; chunking the permutation
    yields shards whose cut size is small without any geometry.
    """
    adj = sp.csr_matrix(adjacency)
    n = adj.shape[0]
    if not 1 <= n_shards <= max(n, 1):
        raise GraphError(
            f"need 1 <= n_shards <= n_nodes, got n_shards={n_shards}, n={n}"
        )
    labels = np.zeros(n, dtype=np.int64)
    if n_shards == 1:
        return labels
    perm = np.asarray(reverse_cuthill_mckee(adj, symmetric_mode=True))
    sizes = np.full(n_shards, n // n_shards, dtype=np.int64)
    sizes[: n % n_shards] += 1
    labels[perm] = np.repeat(np.arange(n_shards, dtype=np.int64), sizes)
    return labels


def graph_shards(
    graph: Graph, n_shards: int, points: Optional[np.ndarray] = None
) -> np.ndarray:
    """Shard labels for a road graph: spatial when possible, else RCM.

    Parameters
    ----------
    graph:
        The (dual) road graph to shard.
    n_shards:
        Number of shards.
    points:
        Optional ``(n, d)`` node coordinates (segment midpoints from
        :func:`segment_midpoints`); when absent the structural
        fallback runs on the adjacency alone.
    """
    if points is not None:
        pts = np.asarray(points, dtype=float)
        n_expected = graph.n_nodes
        if pts.shape[0] != n_expected:
            raise GraphError(
                f"points rows ({pts.shape[0]}) must match graph nodes "
                f"({n_expected})"
            )
        return spatial_shards(pts, n_shards)
    return structural_shards(graph.adjacency, n_shards)


def shard_order(labels: np.ndarray, n_shards: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group node ids by shard: ``(order, offsets)``.

    ``order[offsets[s]:offsets[s+1]]`` are the (ascending) node ids of
    shard ``s`` — the index the parent slices each shard's induced
    subgraph with.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=n_shards)
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets
