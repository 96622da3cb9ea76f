"""Clustering kernel: k-means and cluster-count optimality measures.

Implements the two clustering routines the framework needs from
scratch:

* 1-D k-means with the paper's deterministic initialisation (sorted
  feature values, means seeded at equal intervals — Section 4.1),
  fitted for many cluster counts at once by the Algorithm-1 scan;
* standard n-D k-means (Lloyd's algorithm with k-means++ seeding) for
  clustering row-normalised eigenvectors in the spectral stage;

plus the optimality measures used to choose the number of clusters:
clustering gain and clustering balance (Jung et al. 2003) and the
paper's Moderated Clustering Gain (MCG, Equation 1).
"""

from repro.clustering.kmeans import (
    KMeansResult,
    assign_to_centers,
    kmeans,
    kmeans_1d,
    kmeans_1d_batch,
)
from repro.clustering.optimal1d import kmeans_1d_optimal
from repro.clustering.optimality import (
    KappaScan,
    clustering_balance,
    clustering_gain,
    moderated_clustering_gain,
    scan_kappa,
    shortlist_kappa,
)

__all__ = [
    "KMeansResult",
    "kmeans",
    "kmeans_1d",
    "kmeans_1d_batch",
    "kmeans_1d_optimal",
    "assign_to_centers",
    "clustering_gain",
    "clustering_balance",
    "moderated_clustering_gain",
    "KappaScan",
    "scan_kappa",
    "shortlist_kappa",
]
