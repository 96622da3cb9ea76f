"""k-means clustering, from scratch.

Two variants:

* :func:`kmeans_1d` — the paper's variant for single-dimension feature
  values (traffic densities): values are sorted and the j-th cluster
  mean is initialised with the value at position ``n/kappa * j``,
  removing the randomness of standard seeding (Section 4.1);
* :func:`kmeans` — standard Lloyd's algorithm with k-means++ seeding
  for multi-dimensional data (row-normalised eigenvectors).

Both hot paths are engineered for city-scale inputs:

* ``kmeans_1d`` exploits the one-dimensional structure end to end.
  Cluster boundaries are thresholds between sorted consecutive means,
  so once the data is sorted each Lloyd iteration only needs the
  kappa-1 boundary positions (``searchsorted`` of the bounds into the
  sorted values) and prefix-sums to recompute every cluster mean —
  O(kappa log n) per iteration instead of O(n log kappa). The sort
  itself can be shared across many calls on the same data (the
  Algorithm-1 kappa scan) via the ``presorted`` argument.
  :func:`kmeans_1d_reference` keeps the original O(n)-per-iteration
  formulation for equivalence testing.
* ``kmeans`` avoids materialising the O(n * kappa * d) broadcast
  distance tensor: assignment uses the expansion
  ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2`` evaluated in row chunks,
  turning the inner loop into single-thread BLAS matrix products with
  bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ClusteringError
from repro.obs.convergence import (
    ConvergenceTrace,
    attach_convergence,
    convergence_wanted,
)
from repro.obs.metrics import incr, metrics_enabled
from repro.util.rng import RngLike, ensure_rng


@dataclass
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    labels:
        Cluster index per data item, in ``0..kappa-1``.
    centers:
        Cluster means, shape (kappa, d) — or (kappa,) for 1-D input.
    inertia:
        Sum of squared distances of items to their cluster mean.
    n_iter:
        Lloyd iterations executed before convergence/cutoff.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int

    @property
    def kappa(self) -> int:
        """Number of clusters."""
        return int(self.centers.shape[0])


def _validate_kappa(n: int, kappa: int) -> None:
    if kappa < 1:
        raise ClusteringError(f"kappa must be positive, got {kappa}")
    if kappa > n:
        raise ClusteringError(f"kappa={kappa} exceeds number of items n={n}")


def kmeans_1d(
    values: Sequence[float],
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
    presorted: Optional[np.ndarray] = None,
) -> KMeansResult:
    """1-D k-means with deterministic sorted equal-interval seeding.

    Parameters
    ----------
    values:
        Feature values (traffic densities), any order.
    kappa:
        Number of clusters.
    max_iter, tol:
        Lloyd iteration cutoff and convergence tolerance on the total
        movement of cluster means.
    presorted:
        The same values already sorted ascending. Callers fitting many
        kappa against one density vector (the Algorithm-1 scan) pass
        ``np.sort(values)`` once to share the sort across all fits;
        when omitted the sort happens internally.

    Notes
    -----
    Because the data is one-dimensional, optimal cluster boundaries
    are thresholds between sorted consecutive means. Each Lloyd
    iteration therefore locates the kappa-1 boundaries in the sorted
    values with :func:`numpy.searchsorted` and recomputes all cluster
    means from prefix sums — O(kappa log n) per iteration. Empty
    clusters are re-seeded with the value farthest from its mean.
    Labels are returned in the order of ``values``.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    _validate_kappa(n, kappa)
    if not np.isfinite(data).all():
        raise ClusteringError("values must be finite")

    if presorted is None:
        sorted_vals = np.sort(data, kind="stable")
    else:
        sorted_vals = np.asarray(presorted, dtype=float).ravel()
        if sorted_vals.shape != data.shape:
            raise ClusteringError(
                f"presorted must have shape {data.shape}, got {sorted_vals.shape}"
            )

    # initialise means at equal intervals of the sorted values:
    # mean_j = sorted[i], i = floor(n/kappa * j) centred in each chunk
    positions = (np.arange(kappa) + 0.5) * n / kappa
    centers = sorted_vals[np.clip(positions.astype(int), 0, n - 1)].astype(float)

    prefix = np.concatenate(([0.0], np.cumsum(sorted_vals)))
    cluster_ids = np.arange(kappa)
    edges = np.empty(kappa + 1, dtype=np.int64)
    edges[0], edges[kappa] = 0, n

    conv = (
        ConvergenceTrace("kmeans_1d", meta={"n": n, "kappa": kappa, "tol": tol})
        if convergence_wanted()
        else None
    )

    n_iter = 0
    shift = float("inf")
    for n_iter in range(1, max_iter + 1):
        centers = np.sort(centers)
        # boundaries halfway between consecutive means; cluster q owns
        # the sorted slice edges[q]:edges[q+1] (value x belongs to q
        # iff bounds[q-1] < x <= bounds[q], matching searchsorted-left
        # assignment of x against the bounds)
        bounds = (centers[:-1] + centers[1:]) / 2.0
        edges[1:kappa] = np.searchsorted(sorted_vals, bounds, side="right")
        counts = np.diff(edges)
        sums = prefix[edges[1:]] - prefix[edges[:-1]]

        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty]

        # re-seed empty clusters with the worst-represented value
        if not nonempty.all():
            labels_sorted = np.repeat(cluster_ids, counts)
            residuals = np.abs(sorted_vals - new_centers[labels_sorted])
            for q in np.flatnonzero(~nonempty):
                far = int(np.argmax(residuals))
                new_centers[q] = sorted_vals[far]
                residuals[far] = -1.0

        shift = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        if conv is not None:
            conv.record(shift=shift)
        if shift <= tol:
            break

    centers = np.sort(centers)
    bounds = (centers[:-1] + centers[1:]) / 2.0
    labels = np.searchsorted(bounds, data, side="left")
    inertia = float(((data - centers[labels]) ** 2).sum())
    incr("kmeans1d.fits")
    incr("kmeans1d.iterations", n_iter)
    if conv is not None:
        conv.finish(converged=shift <= tol, inertia=inertia)
        attach_convergence(conv)
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=n_iter)


def kmeans_1d_reference(
    values: Sequence[float],
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansResult:
    """Reference 1-D k-means (full O(n) assignment per iteration).

    The original formulation kept for equivalence tests: assignment
    runs ``searchsorted`` over every value and means come from
    ``bincount``. :func:`kmeans_1d` is the production path.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    _validate_kappa(n, kappa)
    if not np.isfinite(data).all():
        raise ClusteringError("values must be finite")

    order = np.argsort(data, kind="stable")
    sorted_vals = data[order]

    positions = (np.arange(kappa) + 0.5) * n / kappa
    centers = sorted_vals[np.clip(positions.astype(int), 0, n - 1)].astype(float)

    labels = np.zeros(n, dtype=int)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        centers = np.sort(centers)
        bounds = (centers[:-1] + centers[1:]) / 2.0
        labels = np.searchsorted(bounds, data, side="left")

        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=kappa)
        sums = np.bincount(labels, weights=data, minlength=kappa)
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty]

        if not nonempty.all():
            residuals = np.abs(data - new_centers[labels])
            for q in np.flatnonzero(~nonempty):
                far = int(np.argmax(residuals))
                new_centers[q] = data[far]
                residuals[far] = -1.0

        shift = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        if shift <= tol:
            break

    centers = np.sort(centers)
    bounds = (centers[:-1] + centers[1:]) / 2.0
    labels = np.searchsorted(bounds, data, side="left")
    inertia = float(((data - centers[labels]) ** 2).sum())
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=n_iter)


def _kmeanspp_init(
    data: np.ndarray, kappa: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = data.shape[0]
    centers = np.empty((kappa, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, kappa):
        total = closest.sum()
        if total <= 0:
            centers[j:] = data[rng.integers(n, size=kappa - j)]
            break
        probs = closest / total
        idx = int(rng.choice(n, p=probs))
        centers[j] = data[idx]
        closest = np.minimum(closest, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


#: Upper bound on one chunk's multiply-adds (rows * kappa * d): under
#: OpenBLAS's 2**19 threading cutoff, where a thin product's woken
#: worker costs more than it saves and spins on after the call returns.
_ASSIGN_CHUNK_CELLS = 1 << 18


def pairwise_sq_dists_reference(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Full (n, kappa) squared-distance matrix via broadcasting.

    The original O(n * kappa * d)-memory formulation, kept as the
    equivalence-test reference for :func:`assign_to_centers`.
    """
    return ((data[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)


def assign_to_centers(
    data: np.ndarray,
    centers: np.ndarray,
    sq_norms: Optional[np.ndarray] = None,
    chunk_cells: int = _ASSIGN_CHUNK_CELLS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-center assignment via chunked ``||x||^2 - 2 x.c + ||c||^2``.

    Parameters
    ----------
    data:
        (n, d) items.
    centers:
        (kappa, d) cluster centers.
    sq_norms:
        Optional precomputed ``(data ** 2).sum(axis=1)``; pass it once
        per Lloyd run since the data never changes between iterations.
    chunk_cells:
        Bound on rows-per-chunk * kappa * d, capping peak memory at one
        chunk of the distance matrix regardless of n.

    Returns
    -------
    (labels, min_sq_dists):
        Per-item nearest center index and the squared distance to it
        (clamped at 0 against floating-point cancellation).
    """
    n = data.shape[0]
    kappa = centers.shape[0]
    if sq_norms is None:
        sq_norms = (data**2).sum(axis=1)
    center_norms = (centers**2).sum(axis=1)
    labels = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n, dtype=float)
    chunk = max(1, min(n, chunk_cells // max(1, kappa * data.shape[1])))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = data[start:stop] @ centers.T
        d2 *= -2.0
        d2 += sq_norms[start:stop, np.newaxis]
        d2 += center_norms[np.newaxis, :]
        np.maximum(d2, 0.0, out=d2)
        idx = d2.argmin(axis=1)
        labels[start:stop] = idx
        min_d2[start:stop] = d2[np.arange(stop - start), idx]
    return labels, min_d2


def kmeans(
    data,
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
    n_init: int = 1,
    seed: RngLike = None,
) -> KMeansResult:
    """Standard n-D k-means (Lloyd's algorithm, k-means++ seeding).

    Parameters
    ----------
    data:
        Array-like of shape (n, d).
    kappa:
        Number of clusters.
    n_init:
        Number of restarts; the run with the lowest inertia wins.
    seed:
        Reproducibility seed.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ClusteringError(f"data must be 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    _validate_kappa(n, kappa)
    if not np.isfinite(arr).all():
        raise ClusteringError("data must be finite")
    if n_init < 1:
        raise ClusteringError(f"n_init must be positive, got {n_init}")
    rng = ensure_rng(seed)

    sq_norms = (arr**2).sum(axis=1)

    # reassignment counting costs an O(n) compare per iteration, so it
    # only runs while a metrics registry is active
    track_moves = metrics_enabled()
    reassigned = 0
    # same guard for the per-iteration convergence series: the inertia
    # reduction costs an O(n) sum per iteration
    track_convergence = convergence_wanted()

    best: Optional[KMeansResult] = None
    for restart in range(n_init):
        conv = (
            ConvergenceTrace(
                "kmeans_nd",
                meta={"n": n, "kappa": kappa, "tol": tol, "restart": restart},
            )
            if track_convergence
            else None
        )
        centers = _kmeanspp_init(arr, kappa, rng)
        labels = np.zeros(n, dtype=int)
        prev_labels: Optional[np.ndarray] = None
        n_iter = 0
        shift = float("inf")
        for n_iter in range(1, max_iter + 1):
            # assignment step (chunked expansion, no n*kappa*d tensor)
            labels, __dists = assign_to_centers(arr, centers, sq_norms=sq_norms)
            if track_moves:
                if prev_labels is not None:
                    reassigned += int((labels != prev_labels).sum())
                prev_labels = labels
            if conv is not None:
                conv.record(inertia=float(__dists.sum()))

            # update step
            new_centers = centers.copy()
            counts = np.bincount(labels, minlength=kappa)
            for q in range(kappa):
                if counts[q] > 0:
                    new_centers[q] = arr[labels == q].mean(axis=0)
            # re-seed empty clusters at the farthest point
            if (counts == 0).any():
                dist_own = ((arr - new_centers[labels]) ** 2).sum(axis=1)
                for q in np.flatnonzero(counts == 0):
                    far = int(np.argmax(dist_own))
                    new_centers[q] = arr[far]
                    dist_own[far] = -1.0

            shift = float(np.abs(new_centers - centers).sum())
            centers = new_centers
            if conv is not None:
                conv.record(shift=shift)
            if shift <= tol:
                break

        labels, min_d2 = assign_to_centers(arr, centers, sq_norms=sq_norms)
        inertia = float(min_d2.sum())
        candidate = KMeansResult(
            labels=labels, centers=centers, inertia=inertia, n_iter=n_iter
        )
        incr("kmeans_nd.fits")
        incr("kmeans_nd.iterations", n_iter)
        if conv is not None:
            conv.finish(converged=shift <= tol, inertia=inertia)
            attach_convergence(conv)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    if track_moves:
        incr("kmeans_nd.reassignments", reassigned)
    assert best is not None
    return best
