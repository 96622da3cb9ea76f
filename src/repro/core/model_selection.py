"""Choosing the number of partitions k.

The paper selects k as the minimiser of the ANS metric over a scanned
range (Section 6.3, following Ji & Geroliminis); spectral clustering
folklore offers the eigengap heuristic as a cheaper alternative. Both
are provided:

* :func:`select_k_by_ans` — run the framework over a k-range and pick
  the ANS minimum (also returns the local minima the paper lists as
  "good candidates");
* :func:`select_k_by_eigengap` — the largest gap between consecutive
  eigenvalues of the normalized Laplacian of the (affinity-weighted)
  road graph: with k well-separated regions the k smallest eigenvalues
  sit near zero and a gap opens before the (k+1)-th (von Luxburg's
  classic heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import normalized_laplacian
from repro.util.rng import RngLike


@dataclass
class KSelection:
    """Outcome of a k scan.

    Attributes
    ----------
    best_k:
        The selected number of partitions.
    scores:
        Metric value per scanned k (ANS for the ANS scan, eigenvalue
        gaps for the eigengap heuristic).
    candidates:
        Local minima of the curve — the paper's "good candidates" for
        alternative partition counts.
    """

    best_k: int
    scores: Dict[int, float] = field(default_factory=dict)
    candidates: List[int] = field(default_factory=list)


def _local_minima(ks: List[int], values: List[float]) -> List[int]:
    out = []
    for i in range(1, len(values) - 1):
        if values[i] <= values[i - 1] and values[i] <= values[i + 1]:
            out.append(ks[i])
    return out


def select_k_by_ans(
    graph: Graph,
    k_range: Sequence[int] = range(2, 16),
    scheme: str = "ASG",
    n_runs: int = 1,
    seed: RngLike = 0,
) -> KSelection:
    """Scan k and pick the ANS minimum (the paper's criterion).

    Parameters
    ----------
    graph:
        Road graph with densities as features.
    k_range:
        The k values to scan.
    scheme:
        Scheme used per scan point.
    n_runs:
        Runs per k (median ANS), matching the paper's repeated
        executions.
    seed:
        Base seed; run r uses ``seed + r``.
    """
    # imported here: pipeline.schemes depends on repro.core, so a
    # module-level import would be circular
    from repro.pipeline.schemes import run_scheme

    ks = [int(k) for k in k_range]
    if not ks:
        raise PartitioningError("k_range must be non-empty")
    if n_runs < 1:
        raise PartitioningError(f"n_runs must be positive, got {n_runs}")
    base = 0 if seed is None else int(seed) if np.isscalar(seed) else 0

    scores: Dict[int, float] = {}
    for k in ks:
        values = []
        for r in range(n_runs):
            result = run_scheme(scheme, graph, k, seed=base + r)
            values.append(result.evaluate(graph)["ans"])
        scores[k] = float(np.median(values))

    ordered = [scores[k] for k in ks]
    best_k = ks[int(np.argmin(ordered))]
    return KSelection(
        best_k=best_k, scores=scores, candidates=_local_minima(ks, ordered)
    )


def select_k_by_eigengap(
    graph: Graph,
    k_max: int = 15,
    k_min: int = 2,
    use_affinity: bool = True,
) -> KSelection:
    """Pick k at the largest normalized-Laplacian eigengap.

    With k well-separated congestion regions, the k smallest
    eigenvalues of ``L_sym`` of the affinity-weighted road graph sit
    near zero and a gap opens before the (k+1)-th; the heuristic picks
    the k maximising ``lambda_{k+1} - lambda_k``.

    Parameters
    ----------
    graph:
        Road graph; when ``use_affinity`` (default) its links are
        re-weighted with the Gaussian congestion affinity first, as the
        direct partitioning schemes do.
    k_max, k_min:
        The k range considered.
    """
    if not 1 < k_min <= k_max:
        raise PartitioningError(
            f"need 1 < k_min <= k_max, got k_min={k_min}, k_max={k_max}"
        )
    if k_max + 1 > graph.n_nodes:
        raise PartitioningError(
            f"k_max={k_max} too large for {graph.n_nodes} nodes"
        )
    if use_affinity:
        from repro.graph.affinity import congestion_affinity

        adjacency = congestion_affinity(graph)
    else:
        adjacency = graph.adjacency

    values, __, __ = smallest_eigenpairs(normalized_laplacian(adjacency), k_max + 1)
    gaps: Dict[int, float] = {}
    for k in range(k_min, k_max + 1):
        gaps[k] = float(values[k] - values[k - 1])
    best_k = max(gaps, key=gaps.get)
    ks = sorted(gaps)
    # for eigengaps, "candidates" are other prominently large gaps
    threshold = 0.5 * gaps[best_k]
    candidates = [k for k in ks if gaps[k] >= threshold and k != best_k]
    return KSelection(best_k=best_k, scores=gaps, candidates=candidates)
