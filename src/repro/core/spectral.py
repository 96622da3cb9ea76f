"""Spectral relaxation of the alpha-Cut (Algorithm 3, lines 1-11).

Pipeline: build M = d d^T / sum(d) - A, take the eigenvectors of its k
smallest eigenvalues, stack them as columns of Y (n x k), row-normalise
to Z, k-means the rows into k clusters, then split every cluster into
its connected components so the resulting partitions are spatially
connected (yielding k' >= k partitions).

The eigenpairs come from :func:`repro.graph.eigen.smallest_eigenpairs`
on the matrix-free :class:`repro.graph.laplacian.AlphaCutOperator`:
dense LAPACK up to its ``DENSE_CUTOFF`` (200 nodes, the measured
crossover), ARPACK above.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PartitioningError
from repro.clustering.kmeans import kmeans
from repro.graph.components import connected_components
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import AlphaCutOperator
from repro.obs.trace import current_tracer
from repro.util.rng import RngLike, ensure_rng

#: Last eigensolver outcome recorded in this process (module-level:
#: module 3 always runs serially in the calling process). Read it with
#: :func:`last_eigensolver_outcome`, claim it with
#: :func:`consume_eigensolver_outcome`.
_LAST_OUTCOME: Optional[Dict[str, Any]] = None


def last_eigensolver_outcome() -> Optional[Dict[str, Any]]:
    """The outcome record of the most recent :func:`smallest_eigenvectors`.

    The record :func:`repro.graph.eigen.smallest_eigenpairs` returns:
    ``solver`` (the path that produced the eigenpairs), ``n``/``k``,
    ``residual`` (max column norm of ``M v - lambda v`` at exit),
    ``converged``, ``fallback_reason`` (None unless the ARPACK path
    fell back) and ``blas_threads`` (1 when ARPACK ran on a pinned
    OpenBLAS, else None). Returns None before the first solve.
    """
    return None if _LAST_OUTCOME is None else dict(_LAST_OUTCOME)


def consume_eigensolver_outcome() -> Optional[Dict[str, Any]]:
    """Return and clear the last outcome (one consumer per solve)."""
    global _LAST_OUTCOME
    outcome, _LAST_OUTCOME = _LAST_OUTCOME, None
    return outcome


def smallest_eigenvectors(adjacency, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the k smallest eigenvalues of the alpha-Cut matrix M.

    Parameters
    ----------
    adjacency:
        Weighted symmetric adjacency matrix.
    k:
        Number of smallest eigenpairs.

    Returns
    -------
    (eigenvalues, eigenvectors):
        ``eigenvalues`` ascending, shape (k,); ``eigenvectors`` with
        matching columns, shape (n, k).

    Notes
    -----
    Every call records its outcome record — retrievable via
    :func:`last_eigensolver_outcome` and attached to the ``eigensolve``
    span when a tracer is active.
    """
    global _LAST_OUTCOME
    operator = AlphaCutOperator(adjacency)
    n = operator.shape[0]
    tracer = current_tracer()
    active = tracer.span("eigensolve", n=n, k=k) if tracer is not None else nullcontext()
    with active as span:  # nullcontext yields None; tracer.span a Span
        values, vectors, outcome = smallest_eigenpairs(operator, k)
        _LAST_OUTCOME = outcome
        if span is not None:
            span.attrs.update(
                solver=outcome["solver"],
                residual=outcome["residual"],
                converged=outcome["converged"],
            )
            if outcome["fallback_reason"]:
                span.attrs["fallback_reason"] = outcome["fallback_reason"]
            if outcome["blas_threads"] is not None:
                span.attrs["blas_threads"] = outcome["blas_threads"]
    return values, vectors


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalise each row to unit L2 norm (Equation 8).

    Zero rows are left as zeros so isolated/degenerate nodes fall into
    whichever cluster owns the origin instead of producing NaNs.
    """
    y = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return y / safe


def spectral_embedding(adjacency, k: int) -> np.ndarray:
    """The row-normalised spectral embedding Z (Algorithm 3, lines 4-8)."""
    __, vectors = smallest_eigenvectors(adjacency, k)
    return row_normalize(vectors)


def spectral_partition(
    adjacency,
    k: int,
    extract_components: bool = True,
    n_init: int = 3,
    seed: RngLike = None,
) -> np.ndarray:
    """Cluster the spectral embedding into partitions (lines 9-11).

    Parameters
    ----------
    adjacency:
        Weighted symmetric adjacency of the (super)graph.
    k:
        Number of clusters for k-means in eigenspace.
    extract_components:
        Split each eigen-cluster into its connected components so every
        returned partition is connected (may yield k' >= k labels).
    n_init:
        k-means restarts (k-means on eigen-rows has randomised
        seeding; the paper reports medians over repeated executions).
    seed:
        Reproducibility seed.

    Returns
    -------
    numpy.ndarray: partition label per node, dense 0..k'-1.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    n = adj.shape[0]
    if not 1 <= k <= n:
        raise PartitioningError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return np.zeros(n, dtype=int)
    if k == n:
        return np.arange(n, dtype=int)

    rng = ensure_rng(seed)
    z = spectral_embedding(adj, k)
    result = kmeans(z, k, n_init=n_init, seed=rng)
    labels = result.labels

    if not extract_components:
        return _densify(labels)

    # split clusters into connected components (line 11)
    refined = connected_components(adj, labels=labels)
    return _densify(refined)


def _densify(labels: np.ndarray) -> np.ndarray:
    """Relabel to dense 0..k-1 in ascending order of the input labels."""
    __, dense = np.unique(labels, return_inverse=True)
    return dense.astype(int)
