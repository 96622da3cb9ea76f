"""Inter- and intra-partition density distance metrics (Section 6.2).

* **inter** — evaluates C.3 (heterogeneity): the average, over every
  pair of *spatially adjacent* partitions, of the mean absolute
  density difference between their node sets. Higher is better.
* **intra** — evaluates C.4 (homogeneity): the average, over all
  partitions, of the mean absolute density difference between node
  pairs inside the partition. Lower is better.

Both averages of absolute differences are computed with sorted
prefix sums in O(n log n) rather than the naive O(n^2) pairing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitioningError


def mean_abs_pairwise(values) -> float:
    """Mean |x_i - x_j| over all unordered pairs of ``values``.

    Uses the sorted-prefix identity
    ``sum_{i<j} |x_i - x_j| = sum_k (2k - n + 1) x_(k)``.
    Returns 0.0 for fewer than two values.
    """
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    n = arr.size
    if n < 2:
        return 0.0
    coeffs = 2.0 * np.arange(n) - (n - 1)
    total = float((coeffs * arr).sum())
    # cancellation on (near-)constant inputs can leave a tiny negative
    return max(total, 0.0) / (n * (n - 1) / 2.0)


def mean_abs_cross(x, y) -> float:
    """Mean |x_i - y_j| over all cross pairs of two value sets.

    O((n + m) log(n + m)) via sorting one side and prefix sums.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.asarray(y, dtype=float).ravel()
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise PartitioningError("mean_abs_cross needs non-empty inputs")
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    total_x = prefix[-1]
    # for each y, number of xs below it and their sum
    idx = np.searchsorted(xs, ys, side="right")
    below_sum = prefix[idx]
    below_cnt = idx
    # sum_i |x_i - y| = y*cnt_below - sum_below + (sum_above - y*cnt_above)
    contrib = ys * below_cnt - below_sum + (total_x - below_sum) - ys * (n - below_cnt)
    # cancellation on (near-)constant inputs can leave a tiny negative
    return max(float(contrib.sum()), 0.0) / (n * m)


def _check(features, labels) -> Tuple[np.ndarray, np.ndarray, int]:
    feats = np.asarray(features, dtype=float).ravel()
    lab = np.asarray(labels, dtype=int)
    if lab.shape != feats.shape:
        raise PartitioningError(
            f"labels shape {lab.shape} does not match features shape {feats.shape}"
        )
    if lab.size == 0:
        raise PartitioningError("empty partitioning")
    if lab.min() < 0:
        raise PartitioningError("labels must be non-negative")
    return feats, lab, int(lab.max()) + 1


def adjacent_partition_pairs(adjacency, labels) -> List[Tuple[int, int]]:
    """Pairs (i, j), i < j, of partitions joined by at least one edge
    (labels non-negative, as :func:`_check` ensures)."""
    coo = sp.coo_matrix(adjacency)
    lab = np.asarray(labels, dtype=np.int64)
    a, b = lab[coo.row], lab[coo.col]
    cross = a != b
    lo, hi = np.minimum(a[cross], b[cross]), np.maximum(a[cross], b[cross])
    # one code per (lo, hi); its sort order is the pairs' sort order
    width = int(hi.max()) + 1 if hi.size else 1
    # sort and drop repeats: np.unique without return arrays takes a
    # hash-table path that is several times slower on int64 codes
    codes = np.sort(lo * width + hi)
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]
    return list(zip((codes // width).tolist(), (codes % width).tolist()))


def inter_metric(features, labels, adjacency) -> float:
    """Average inter-partition density distance (higher is better).

    Averaged over spatially adjacent partition pairs only, as the
    paper's footnote specifies; non-adjacent pairs never trade nodes
    so their distance is irrelevant to the partitioning decision.
    Returns 0.0 when no two partitions are adjacent (k = 1).
    """
    feats, lab, __ = _check(features, labels)
    pairs = adjacent_partition_pairs(adjacency, lab)
    if not pairs:
        return 0.0
    groups = {}
    total = 0.0
    for i, j in pairs:
        if i not in groups:
            groups[i] = feats[lab == i]
        if j not in groups:
            groups[j] = feats[lab == j]
        total += mean_abs_cross(groups[i], groups[j])
    return total / len(pairs)


def intra_metric(features, labels) -> float:
    """Average intra-partition density distance (lower is better)."""
    feats, lab, k = _check(features, labels)
    total = 0.0
    for i in range(k):
        members = feats[lab == i]
        if members.size == 0:
            raise PartitioningError(f"partition {i} is empty")
        total += mean_abs_pairwise(members)
    return total / k
