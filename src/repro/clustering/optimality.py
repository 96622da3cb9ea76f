"""Cluster-count optimality measures.

Implements, for a clustering C = {C_1..C_kappa} of a dataset with
global mean mu0 and cluster means mu_q:

* **clustering gain** (Jung et al. 2003)::

      Delta(C) = sum_q (|C_q| - 1) * ||mu_q - mu0||^2

  — maximised at the optimal cluster count;

* **clustering balance** (Jung et al. 2003): the sum of the
  intra-cluster error sum and the inter-cluster error sum — minimised
  at the optimal cluster count;

* **Moderated Clustering Gain** (the paper's Equation 1)::

      Theta(C)   = sum_q Theta1(C_q) * Theta2(C_q)
      Theta1(C_q) = (|C_q| - 1) * ||mu_q - mu0||^2          (gain term)
      Theta2(C_q) = 1 - log2(1 + intra_q / (|C_q| * ||mu_q - mu0||^2))

  where ``intra_q = sum_{d in C_q} ||d - mu_q||^2``. Theta2 moderates
  the gain of clusters that are internally loose relative to their
  separation; per the paper it lies in [0, 1], so we clamp negative
  values (extremely loose clusters) to 0.

:func:`scan_kappa` applies 1-D k-means over a range of kappa values
(optionally on a random sample of the data, as the paper does for very
large datasets) and records the MCG curve; :func:`shortlist_kappa`
returns every kappa whose MCG clears the optimality threshold
``epsilon_theta`` (Algorithm 1, lines 3-9). The scan fits every kappa
on one shared sort and then scores them one at a time through one
reused label buffer, sharing :func:`moderated_clustering_gain`'s
statistics and Theta core, so its working memory does not grow with
the number of kappa scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.kmeans import KMeansResult, SortedFits, fit_sorted
from repro.exceptions import ClusteringError
from repro.obs.metrics import incr, set_gauge
from repro.util.rng import RngLike, ensure_rng
from repro.util.timer import ModuleTimer


def _cluster_stats(
    data: np.ndarray,
    labels: np.ndarray,
    kappa: int,
    sizes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster (sizes, means, intra error sums) + global mean.

    ``data`` is (n, d); returns sizes (kappa,), means (kappa, d),
    intra (kappa,), mu0 (d,). Empty clusters get zero entries.
    ``sizes`` (float cluster sizes) skips the counting pass when the
    caller already has them. Sums and intra errors are weighted
    ``bincount`` calls, accumulated in input order.
    """
    n, d = data.shape
    mu0 = data.mean(axis=0)
    if sizes is None:
        sizes = np.bincount(labels, minlength=kappa).astype(float)
    means = np.zeros((kappa, d))
    for col in range(d):
        sums = np.bincount(labels, weights=data[:, col], minlength=kappa)
        np.divide(sums, sizes, out=means[:, col], where=sizes > 0)
    diffs = data - means[labels]
    intra_items = (diffs**2).sum(axis=1)
    intra = np.bincount(labels, weights=intra_items, minlength=kappa)
    return sizes, means, intra, mu0


def _prepare(data, labels) -> Tuple[np.ndarray, np.ndarray, int]:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ClusteringError(f"data must be 1-D or 2-D, got shape {arr.shape}")
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (arr.shape[0],):
        raise ClusteringError(
            f"labels must have shape ({arr.shape[0]},), got {lab.shape}"
        )
    if lab.size == 0:
        raise ClusteringError("cannot score an empty clustering")
    if lab.min() < 0:
        raise ClusteringError("labels must be non-negative")
    kappa = int(lab.max()) + 1
    return arr, lab, kappa


def clustering_gain(data, labels) -> float:
    """Clustering gain Delta(C) of Jung et al. (higher is better)."""
    arr, lab, kappa = _prepare(data, labels)
    sizes, means, __, mu0 = _cluster_stats(arr, lab, kappa)
    sep = ((means - mu0) ** 2).sum(axis=1)
    return float(((sizes - 1.0).clip(min=0.0) * sep).sum())


def clustering_balance(data, labels) -> float:
    """Clustering balance of Jung et al. (lower is better).

    The sum of the intra-cluster error sum (scatter of items around
    their cluster mean) and the inter-cluster error sum (scatter of
    cluster means around the global mean).
    """
    arr, lab, kappa = _prepare(data, labels)
    __, means, intra, mu0 = _cluster_stats(arr, lab, kappa)
    inter = float(((means - mu0) ** 2).sum())
    return float(intra.sum()) + inter


def moderated_clustering_gain(data, labels) -> float:
    """The paper's Moderated Clustering Gain, Theta(C) (Equation 1).

    Higher is better. Clusters whose mean coincides with the global
    mean contribute zero (their gain term vanishes); clusters so loose
    that the moderation term would go negative contribute zero as well,
    honouring the paper's statement that Theta2 lies in [0, 1].
    """
    arr, lab, kappa = _prepare(data, labels)
    return _theta(*_cluster_stats(arr, lab, kappa))


def _theta(sizes: np.ndarray, means: np.ndarray, intra: np.ndarray, mu0: np.ndarray) -> float:
    """Theta(C) from :func:`_cluster_stats`' per-cluster statistics."""
    sep = ((means - mu0) ** 2).sum(axis=1)

    active = (sizes > 0) & (sep > 0)
    theta1 = (sizes - 1.0) * sep
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(active, intra / (sizes * sep), 0.0)
    theta2 = np.clip(1.0 - np.log2(1.0 + ratio), 0.0, 1.0)
    terms = theta1[active] * theta2[active]
    # accumulate sequentially in cluster order so the result stays
    # bit-identical to the reference loop (np.sum reorders additions)
    theta = 0.0
    for term in terms:
        theta += float(term)
    return float(theta)


@dataclass
class KappaScan:
    """MCG curve over a range of cluster counts.

    Attributes
    ----------
    kappas:
        The kappa values scanned, ascending.
    mcg:
        MCG measure at each kappa (same order).
    sampled:
        True when the scan ran on a random sample of the data.
    fits:
        The scan's 1-D k-means fits on the scanned data (the sample
        when sampling was used): the shared sort plus each kappa's
        centers and ``n_iter``, no label vectors. :meth:`fit` builds
        one kappa's result from them.
    """

    kappas: List[int] = field(default_factory=list)
    mcg: List[float] = field(default_factory=list)
    sampled: bool = False
    fits: Optional[SortedFits] = field(default=None, repr=False)

    def fit(self, kappa: int) -> KMeansResult:
        """The 1-D k-means result at ``kappa``, built on request."""
        if self.fits is None or kappa not in self.kappas:
            raise ClusteringError(f"kappa={kappa} was not scanned")
        return self.fits.result(self.kappas.index(kappa))

    @property
    def results(self) -> List[KMeansResult]:
        """The result at every scanned kappa, each built on access."""
        return [self.fit(kappa) for kappa in self.kappas]

    @property
    def best_kappa(self) -> int:
        """Kappa attaining the global MCG maximum (theta in the paper)."""
        if not self.kappas:
            raise ClusteringError("empty kappa scan")
        return self.kappas[int(np.argmax(self.mcg))]

    @property
    def best_mcg(self) -> float:
        """The maximum MCG value across the scan."""
        if not self.kappas:
            raise ClusteringError("empty kappa scan")
        return float(max(self.mcg))

    def shortlist(self, epsilon_theta: float) -> List[int]:
        """All kappa whose MCG is at least ``epsilon_theta``."""
        return [k for k, m in zip(self.kappas, self.mcg) if m >= epsilon_theta]

    def shortlist_fraction(self, fraction: float) -> List[int]:
        """All kappa whose MCG is at least ``fraction`` of the maximum.

        A scale-free alternative to the paper's absolute threshold
        (which it tunes per dataset: 2000 for M1, 5000 for M2).
        """
        if not 0.0 < fraction <= 1.0:
            raise ClusteringError(f"fraction must be in (0, 1], got {fraction}")
        return self.shortlist(fraction * self.best_mcg)


def _scan_mcg(fits: SortedFits) -> List[float]:
    """The MCG of every fit, in order, from one reused label buffer.

    Each kappa's cluster sizes come from its cut positions in the
    sorted values; its sums and intra-cluster errors from
    :func:`_cluster_stats`' weighted ``bincount`` calls in input order, so
    every value equals ``moderated_clustering_gain(data, labels)`` bit
    for bit.
    """
    data = fits.data[:, np.newaxis]
    labels = np.empty(data.shape[0], dtype=np.intp)
    mcg = []
    for i, kappa in enumerate(fits.kappas):
        counts = fits.counts(i)
        fits.labels(i, counts, out=labels)
        stats = _cluster_stats(data, labels, kappa, sizes=counts.astype(float))
        mcg.append(_theta(*stats))
    return mcg


def scan_kappa(
    values: Sequence[float],
    kappa_max: Optional[int] = None,
    kappa_min: int = 2,
    sample_size: Optional[int] = None,
    seed: RngLike = None,
    timer: Optional[ModuleTimer] = None,
) -> KappaScan:
    """Run 1-D k-means for each kappa and record the MCG curve.

    Every kappa is fitted in one :func:`fit_sorted` call, which shares
    one sort of the (sampled) density vector and one Lloyd loop across
    all fits. The MCG scores then stream through the kappa in order,
    each scored from one reused label buffer (see :func:`_scan_mcg`),
    so the scan keeps each kappa's centers but no label vectors.

    Parameters
    ----------
    values:
        Feature values (traffic densities) to cluster.
    kappa_max:
        Largest kappa to try; defaults to ``min(30, n-1)`` — the MCG
        curve flattens long before that in practice (paper Figure 5).
    kappa_min:
        Smallest kappa to try (the paper starts at 2).
    sample_size:
        When given and smaller than ``len(values)``, the scan runs on a
        random sample of this size — the paper's strategy for very
        large datasets.
    seed:
        Seed for the sampling step (k-means itself is deterministic).
    timer:
        Optional :class:`ModuleTimer` receiving the ``module2.scan``
        timing.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    if n < 3:
        raise ClusteringError("kappa scan needs at least 3 values")
    if kappa_max is None:
        kappa_max = min(30, n - 1)
    if not (1 < kappa_min <= kappa_max <= n - 1):
        raise ClusteringError(
            f"need 1 < kappa_min <= kappa_max <= n-1, got "
            f"kappa_min={kappa_min}, kappa_max={kappa_max}, n={n}"
        )

    sampled = False
    scan_data = data
    if sample_size is not None and sample_size < n:
        if sample_size < kappa_max + 1:
            raise ClusteringError(
                f"sample_size={sample_size} too small for kappa_max={kappa_max}"
            )
        rng = ensure_rng(seed)
        idx = rng.choice(n, size=sample_size, replace=False)
        scan_data = data[idx]
        sampled = True

    own_timer = timer if timer is not None else ModuleTimer()
    scan = KappaScan(sampled=sampled)
    with own_timer.time("module2.scan"):
        scan.kappas = list(range(kappa_min, kappa_max + 1))
        scan.fits = fit_sorted(scan_data, scan.kappas)
        scan.mcg = _scan_mcg(scan.fits)
    incr("kappa_scan.candidates", len(scan.kappas))
    set_gauge("kappa_scan.sampled", 1.0 if sampled else 0.0)
    set_gauge("kappa_scan.best_kappa", scan.best_kappa)
    set_gauge("kappa_scan.best_mcg", scan.best_mcg)
    return scan


def shortlist_kappa(
    values: Sequence[float],
    epsilon_theta: Optional[float] = None,
    epsilon_fraction: float = 0.995,
    kappa_max: Optional[int] = None,
    sample_size: Optional[int] = None,
    seed: RngLike = None,
    timer: Optional[ModuleTimer] = None,
) -> Tuple[List[int], KappaScan]:
    """Scan kappa and shortlist values clearing the MCG threshold.

    When ``epsilon_theta`` (the paper's absolute threshold) is not
    given, the scale-free ``epsilon_fraction`` of the maximum MCG is
    used instead. Always returns at least the best kappa.
    ``timer`` is forwarded to :func:`scan_kappa`.
    """
    scan = scan_kappa(
        values,
        kappa_max=kappa_max,
        sample_size=sample_size,
        seed=seed,
        timer=timer,
    )
    if epsilon_theta is not None:
        shortlisted = scan.shortlist(epsilon_theta)
    else:
        shortlisted = scan.shortlist_fraction(epsilon_fraction)
    if not shortlisted:
        shortlisted = [scan.best_kappa]
    incr("kappa_scan.shortlisted", len(shortlisted))
    return shortlisted, scan
