"""Spectral modularity maximisation (White & Smyth 2005).

The paper observes that the modularity matrix "actually equals the
negative of our alpha-Cut matrix", so maximising modularity via the k
*largest* eigenvalues of B is the same relaxation as minimising
alpha-Cut via the k *smallest* eigenvalues of M. This module provides
the modularity objective and the modularity-side entry point, which
runs the alpha-Cut spectral stage; tests and the sanity benchmark use
them to check that equivalence empirically.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.spectral import spectral_partition
from repro.exceptions import PartitioningError
from repro.util.rng import RngLike


def modularity_value(adjacency, labels) -> float:
    """Newman modularity Q of a labelling (higher is better).

    ``Q = (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta(c_i, c_j)``.
    """
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (adj.shape[0],):
        raise PartitioningError(
            f"labels must have shape ({adj.shape[0]},), got {lab.shape}"
        )
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    two_m = degrees.sum()
    if two_m == 0:
        return 0.0
    k = int(lab.max()) + 1
    internal = np.zeros(k)
    coo = adj.tocoo()
    same = lab[coo.row] == lab[coo.col]
    np.add.at(internal, lab[coo.row[same]], coo.data[same])
    touching = np.bincount(lab, weights=degrees, minlength=k)
    return float((internal / two_m - (touching / two_m) ** 2).sum())


def spectral_modularity_partition(
    adjacency, k: int, n_init: int = 3, seed: RngLike = None
) -> np.ndarray:
    """Partition via the k largest eigenvectors of the modularity matrix.

    The k largest eigenpairs of B = -M are the k smallest of the
    alpha-Cut matrix M with negated eigenvalues, so this is Algorithm
    3's spectral stage itself: :func:`repro.core.spectral.spectral_partition`
    on the same adjacency.
    """
    return spectral_partition(adjacency, k, n_init=n_init, seed=seed)
