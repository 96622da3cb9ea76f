"""k-means clustering, from scratch.

Two variants:

* :func:`fit_sorted` / :func:`kmeans_1d` — the paper's variant
  for single-dimension feature values (traffic densities): values are
  sorted and the j-th cluster mean is initialised with the value at
  position ``n/kappa * j``, removing the randomness of standard seeding
  (Section 4.1);
* :func:`kmeans` — standard Lloyd's algorithm with k-means++ seeding
  for multi-dimensional data (row-normalised eigenvectors).

Both hot paths are engineered for city-scale inputs:

* The 1-D fits exploit the one-dimensional structure end to end.
  Cluster boundaries are thresholds between sorted consecutive means,
  so once the data is sorted each Lloyd iteration only needs the
  kappa-1 boundary positions (``searchsorted`` of the bounds into the
  sorted values) and prefix sums to recompute every cluster mean —
  O(kappa log n) per iteration instead of O(n log kappa). The
  Algorithm-1 scan fits about thirty kappa on one density vector, and
  per kappa that loop is interpreter-bound. :func:`fit_sorted`
  therefore fits every kappa in one loop: one shared sort, all fits'
  centers in one flat array, one ``searchsorted`` per iteration for
  all of them. Each fit stops where its own loop would have, and every
  result is bit-identical to the per-kappa fit. The returned
  :class:`SortedFits` keeps the sort and each fit's centers and
  iteration count, and builds a fit's labels only when asked, so the
  scan streams through the kappa with one label vector instead of
  holding one per kappa. :func:`kmeans_1d_batch` reads every fit out
  as a result and :func:`kmeans_1d` is the one-kappa call.
  ``tests/oracles.py`` keeps the per-kappa prefix-sum loop and the
  original O(n)-per-iteration formulation for equivalence testing.
* ``kmeans`` avoids materialising the O(n * kappa * d) broadcast
  distance tensor: assignment uses the expansion
  ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2`` evaluated in row chunks,
  turning the inner loop into single-thread BLAS matrix products with
  bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ClusteringError
from repro.obs.convergence import (
    ConvergenceTrace,
    attach_convergence,
    convergence_enabled,
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


#: Half-width, in units of ``kappa_max * eps`` relative to the shift,
#: of the band around ``tol`` inside which a batched shift is re-summed
#: the 1-D way: the segmented and the 1-D sums of at most kappa_max
#: non-negative terms differ by rounding alone, far less than this.
_SHIFT_GUARD = 64

_NO_FITS = np.empty(0, dtype=np.int64)


class _Segments:
    """Flat layout of the fits still iterating, one segment per kappa.

    Pair j of the flat centers is (j, j+1); it is a bound of one fit
    unless it straddles two segments (``cross``). ``hi``/``lo`` are the
    per-iteration buffers of every cluster's sorted-slice edges.
    """

    def __init__(self, kappas: np.ndarray) -> None:
        self.ends = np.cumsum(kappas)
        self.starts = self.ends - kappas
        self.owner = np.repeat(np.arange(kappas.size), kappas)
        self.cross = self.ends[:-1] - 1
        self.hi = np.empty(int(self.ends[-1]), dtype=np.int64)
        self.lo = np.empty_like(self.hi)

    def pieces(self, flat: np.ndarray, which) -> List[np.ndarray]:
        """Views of ``flat`` over the segments numbered ``which``."""
        return [flat[self.starts[i] : self.ends[i]] for i in which]


def _reseed_empty(sorted_vals: np.ndarray, centers: np.ndarray, counts) -> None:
    """Move each empty cluster's center onto the worst-represented value."""
    labels_sorted = np.repeat(np.arange(centers.size), counts)
    residuals = np.abs(sorted_vals - centers[labels_sorted])
    for q in np.flatnonzero(counts == 0):
        far = int(np.argmax(residuals))
        centers[q] = sorted_vals[far]
        residuals[far] = -1.0


def _lloyd_batch(
    sorted_vals: np.ndarray, k_all: np.ndarray, max_iter: int, tol: float, keep_history: bool
):
    """The batched Lloyd loop of :func:`fit_sorted`.

    Returns each fit's final (sorted) centers, its iteration count, its
    converged flag and, with ``keep_history``, per iteration the
    ``|new - old|`` means with the fits active then and their layout.
    """
    n = sorted_vals.size
    prefix = np.concatenate(([0.0], np.cumsum(sorted_vals)))

    # initialise means at equal intervals of the sorted values:
    # mean_j = sorted[i], i = floor(n/kappa * j) centred in each chunk
    seg = _Segments(k_all)
    local = np.arange(seg.owner.size) - seg.starts[seg.owner]
    positions = (local + 0.5) * n / k_all[seg.owner]
    centers = sorted_vals[np.clip(positions.astype(int), 0, n - 1)].astype(float)

    # a batched shift inside [near_lo, near_hi] is re-summed the 1-D way
    band = _SHIFT_GUARD * int(k_all.max()) * np.finfo(float).eps
    near_lo, near_hi = tol * (1.0 - band), tol / (1.0 - band)
    active = np.arange(k_all.size)
    final: Dict[int, np.ndarray] = {}
    n_iters = np.full(k_all.size, max(max_iter, 0), dtype=np.int64)
    converged = np.zeros(k_all.size, dtype=bool)
    history: List[Tuple[np.ndarray, np.ndarray, _Segments]] = []

    for n_iter in range(1, max_iter + 1):
        # cluster q of a fit owns the sorted slice lo[q]:hi[q] (value x
        # belongs to q iff bounds[q-1] < x <= bounds[q], matching
        # searchsorted-left assignment of x against the bounds); the
        # edges searched for the pairs that straddle fits are reset
        bounds = centers[:-1] + centers[1:]
        bounds /= 2.0
        cut = np.searchsorted(sorted_vals, bounds, side="right")
        hi, lo = seg.hi, seg.lo
        hi[:-1] = cut
        hi[seg.ends - 1] = n
        lo[1:] = cut
        lo[seg.starts] = 0
        counts = hi - lo
        sums = prefix[hi] - prefix[lo]

        if counts.all():
            reseeded = _NO_FITS
            new_centers = sums / counts
        else:
            new_centers = centers.copy()
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty]
            reseeded = np.unique(seg.owner[~nonempty])
            for i in reseeded:
                start, end = seg.starts[i], seg.ends[i]
                _reseed_empty(sorted_vals, new_centers[start:end], counts[start:end])

        moved = new_centers - centers
        np.abs(moved, out=moved)
        shifts = np.add.reduceat(moved, seg.starts)
        near = np.flatnonzero((shifts >= near_lo) & (shifts <= near_hi))
        for i, piece in zip(near, seg.pieces(moved, near)):
            shifts[i] = piece.sum()
        if keep_history:
            history.append((moved, active, seg))
        centers = new_centers

        # means of consecutive sorted slices ascend, up to prefix-sum
        # rounding between near-equal slices; re-seeds land anywhere
        descending = centers[1:] < centers[:-1]
        descending[seg.cross] = False
        if reseeded.size or descending.any():
            unsorted = np.union1d(seg.owner[np.flatnonzero(descending)], reseeded)
            for piece in seg.pieces(centers, unsorted):
                piece[:] = np.sort(piece)

        done = shifts <= tol
        if done.any():
            stopped = np.flatnonzero(done)
            for i, piece in zip(active[stopped], seg.pieces(centers, stopped)):
                final[i] = piece.copy()
            n_iters[active[stopped]] = n_iter
            converged[active[stopped]] = True
            active = active[~done]
            if active.size == 0:
                break
            centers = centers[~done[seg.owner]]
            seg = _Segments(k_all[active])

    for i, piece in zip(active, seg.pieces(centers, range(active.size))):
        final[i] = piece.copy()
    return [final[i] for i in range(k_all.size)], n_iters, converged, history


@dataclass
class SortedFits:
    """Several 1-D k-means fits of one value vector, on one shared sort.

    Holds the values, their stable argsort and the sorted values, and
    per fit only its final (sorted) centers and ``n_iter``. A fit's
    cluster sizes, labels and :class:`KMeansResult` are built from its
    centers when asked, so a caller walking many kappa holds one label
    vector at a time, never one per kappa.
    """

    data: np.ndarray
    order: np.ndarray
    sorted_vals: np.ndarray
    kappas: List[int]
    centers: List[np.ndarray]
    n_iters: np.ndarray

    def counts(self, i: int) -> np.ndarray:
        """Cluster sizes of fit ``i``, read off the positions of its
        midpoint bounds in the sorted values (value x belongs to cluster
        q iff bounds[q-1] < x <= bounds[q])."""
        centers = self.centers[i]
        cuts = np.searchsorted(self.sorted_vals, (centers[:-1] + centers[1:]) / 2.0, side="right")
        return np.diff(cuts, prepend=0, append=self.sorted_vals.size)

    def labels(
        self, i: int, counts: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fit ``i``'s labels in input order, written into ``out`` (an
        intp buffer of the values' length) when given."""
        if counts is None:
            counts = self.counts(i)
        if out is None:
            out = np.empty(self.sorted_vals.size, dtype=np.intp)
        out[self.order] = np.repeat(np.arange(counts.size), counts)
        return out

    def result(self, i: int) -> KMeansResult:
        """Fit ``i`` as a :class:`KMeansResult`."""
        centers = self.centers[i]
        labels = self.labels(i)
        inertia = float(((self.data - centers[labels]) ** 2).sum())
        return KMeansResult(
            labels=labels, centers=centers, inertia=inertia, n_iter=int(self.n_iters[i])
        )


def fit_sorted(
    values: Sequence[float],
    kappas: Sequence[int],
    max_iter: int = 100,
    tol: float = 1e-9,
) -> SortedFits:
    """Fit 1-D k-means once per kappa in ``kappas``, in one Lloyd loop.

    Every fit equals a separate :func:`kmeans_1d` call bit for bit
    (labels, centers, inertia, ``n_iter``); fits keep the order of
    ``kappas``.

    All fits share one stable argsort of ``values`` and its prefix
    sums. The centers of every fit still iterating sit in one flat
    array, one sorted segment per kappa, so each iteration is one
    ``searchsorted`` of all midpoint bounds into the sorted values and
    one prefix-sum gather for every cluster's count and sum. A fit
    leaves the loop at the first iteration whose own shift (the summed
    movement of its means) is at most ``tol``. Shifts are summed per
    segment in one ``np.add.reduceat``, which can differ from the 1-D
    sum by rounding; a shift that close to ``tol`` is re-summed the
    1-D way, so every stop decision is the per-kappa one. Empty
    clusters are re-seeded per fit, and a fit whose means come out of
    order is re-sorted on its own. Only the centers and iteration
    counts are kept; labels are the final bounds' positions in the
    sorted values, scattered back through the argsort when a fit is
    read. Under an active tracer each fit files its convergence trace
    here, in the order of ``kappas``.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    for kappa in kappas:
        _validate_kappa(n, kappa)
    if not np.isfinite(data).all():
        raise ClusteringError("values must be finite")
    k_all = np.asarray(kappas, dtype=np.int64)
    order = np.argsort(data, kind="stable")
    sorted_vals = data[order]
    if k_all.size == 0:
        return SortedFits(data, order, sorted_vals, [], [], _NO_FITS)

    keep_history = convergence_enabled()
    final, n_iters, converged, history = _lloyd_batch(
        sorted_vals, k_all, max_iter, tol, keep_history
    )
    fits = SortedFits(data, order, sorted_vals, k_all.tolist(), final, n_iters)
    for i, kappa in enumerate(fits.kappas):
        if keep_history and convergence_wanted():
            conv = ConvergenceTrace("kmeans_1d", meta={"n": n, "kappa": kappa, "tol": tol})
            for moved, active, layout in history[: n_iters[i]]:
                j = int(np.searchsorted(active, i))
                conv.record(shift=float(moved[layout.starts[j] : layout.ends[j]].sum()))
            conv.finish(converged=bool(converged[i]), inertia=fits.result(i).inertia)
            attach_convergence(conv)
    incr("kmeans1d.fits", k_all.size)
    incr("kmeans1d.iterations", int(n_iters.sum()))
    return fits


def kmeans_1d_batch(
    values: Sequence[float],
    kappas: Sequence[int],
    max_iter: int = 100,
    tol: float = 1e-9,
) -> List[KMeansResult]:
    """Every fit of :func:`fit_sorted`, as a list of results in the
    order of ``kappas``."""
    fits = fit_sorted(values, kappas, max_iter=max_iter, tol=tol)
    return [fits.result(i) for i in range(len(fits.kappas))]


def kmeans_1d(
    values: Sequence[float],
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
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

    Notes
    -----
    Because the data is one-dimensional, optimal cluster boundaries
    are thresholds between sorted consecutive means. Each Lloyd
    iteration therefore locates the kappa-1 boundaries in the sorted
    values with :func:`numpy.searchsorted` and recomputes all cluster
    means from prefix sums — O(kappa log n) per iteration. Empty
    clusters are re-seeded with the value farthest from its mean.
    Labels are returned in the order of ``values``. This is the
    one-kappa call of :func:`fit_sorted`.
    """
    return fit_sorted(values, [kappa], max_iter=max_iter, tol=tol).result(0)


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


def _cluster_means(
    arr: np.ndarray, labels: np.ndarray, centers: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Lloyd's update: each non-empty cluster's mean (empty clusters keep
    their center). One weighted ``bincount`` per column sums every
    cluster at once, row by row in input order, as
    ``arr[labels == q].mean(axis=0)`` does for d >= 2, so the means are
    bit-identical to that per-cluster loop (for d = 1 numpy sums
    pairwise, and the last bit may differ)."""
    sums = np.column_stack(
        [np.bincount(labels, weights=arr[:, col], minlength=len(centers))
         for col in range(arr.shape[1])]
    )
    new_centers = centers.copy()
    filled = counts > 0
    new_centers[filled] = sums[filled] / counts[filled, np.newaxis]
    return new_centers


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
            counts = np.bincount(labels, minlength=kappa)
            new_centers = _cluster_means(arr, labels, centers, counts)
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
