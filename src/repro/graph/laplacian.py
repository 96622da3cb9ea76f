"""Matrix builders for spectral partitioning.

Provides the degree, Laplacian, normalized Laplacian, Newman modularity
and the paper's alpha-Cut matrices. All accept a dense/sparse symmetric
adjacency matrix with finite edge weights and return numpy/scipy
objects for the one eigensolver entry point,
:func:`repro.graph.eigen.smallest_eigenpairs`.

The alpha-Cut matrix (Equation 6 of the paper) is

    M = (1^T D)^T (1^T D) / (1^T D 1) - A
      = d d^T / sum(d) - A

where ``d`` is the weighted degree vector. Note this is exactly the
negative of the Newman modularity matrix ``B = A - d d^T / (2m)``
because ``sum(d) = 2m``; the paper points this equivalence out in its
related-work section, and we expose both for the sanity benchmarks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from repro.exceptions import GraphError


def _validate(adjacency) -> sp.csr_matrix:
    adj = sp.csr_matrix(adjacency, dtype=float)
    if adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got {adj.shape}")
    if not np.isfinite(adj.data).all():
        raise GraphError("adjacency has non-finite edge weights")
    return adj


def degree_vector(adjacency) -> np.ndarray:
    """Weighted degree vector (row sums) of the adjacency matrix."""
    adj = _validate(adjacency)
    return np.asarray(adj.sum(axis=1)).ravel()


def degree_matrix(adjacency) -> sp.csr_matrix:
    """Diagonal degree matrix D with row sums of A on the diagonal."""
    return sp.diags(degree_vector(adjacency)).tocsr()


def laplacian_matrix(adjacency) -> sp.csr_matrix:
    """Unnormalized graph Laplacian L = D - A."""
    adj = _validate(adjacency)
    return (degree_matrix(adj) - adj).tocsr()


def normalized_laplacian(adjacency) -> sp.csr_matrix:
    """Symmetric normalized Laplacian ``L_sym = I - D^{-1/2} A D^{-1/2}``.

    Isolated nodes (zero degree) contribute zero rows/columns rather
    than NaNs, matching the convention used by normalized-cut solvers.
    """
    adj = _validate(adjacency)
    deg = degree_vector(adj)
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_half = sp.diags(inv_sqrt)
    eye = sp.identity(adj.shape[0], format="csr")
    return (eye - d_half @ adj @ d_half).tocsr()


def modularity_matrix(adjacency) -> np.ndarray:
    """Newman modularity matrix ``B = A - d d^T / (2m)`` (dense).

    The rank-one term densifies the matrix, so the result is dense by
    construction; for large graphs use :func:`alpha_cut_operator`
    instead, which keeps the rank-one structure implicit.
    """
    adj = _validate(adjacency)
    deg = degree_vector(adj)
    total = deg.sum()
    if total == 0:
        return -adj.toarray()
    return adj.toarray() - np.outer(deg, deg) / total


def alpha_cut_matrix(adjacency) -> np.ndarray:
    """The paper's alpha-Cut matrix ``M = d d^T / sum(d) - A`` (dense).

    Equals ``-modularity_matrix(adjacency)``. The spectral relaxation
    of the alpha-Cut objective selects the *smallest* eigenvalues of M
    (Algorithm 3, lines 4-6).
    """
    adj = _validate(adjacency)
    deg = degree_vector(adj)
    total = deg.sum()
    if total == 0:
        return adj.toarray()
    return np.outer(deg, deg) / total - adj.toarray()


class AlphaCutOperator(LinearOperator):
    """Matrix-free alpha-Cut operator ``M x = d (d.x)/sum(d) - A x``.

    Keeps the rank-one densifying term implicit so ARPACK can work on
    large supergraphs without materialising an ``n x n`` dense matrix.
    The coefficient ``d.x`` is a numpy reduction rather than a BLAS dot:
    ARPACK calls the operator a couple of hundred times per solve, and
    a threaded BLAS ``ddot`` on a vector of a few ten thousand entries
    costs far more in thread hand-off than in arithmetic.
    """

    def __init__(self, adjacency) -> None:
        adj = _validate(adjacency)
        self._adj = adj
        self._deg = degree_vector(adj)
        self._total = float(self._deg.sum())
        n = adj.shape[0]
        super().__init__(dtype=float, shape=(n, n))

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x).ravel()
        rank_one = 0.0
        if self._total > 0:
            rank_one = self._deg * np.add.reduce(self._deg * x) / self._total
        return rank_one - self._adj @ x

    def _matmat(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        rank_one = 0.0
        if self._total > 0:
            coeffs = np.add.reduce(self._deg[:, None] * X, axis=0)
            rank_one = np.outer(self._deg, coeffs) / self._total
        return rank_one - self._adj @ X

    def _adjoint(self) -> "AlphaCutOperator":
        return self  # M is symmetric

    def toarray(self) -> np.ndarray:
        """The dense matrix M, as :func:`alpha_cut_matrix` builds it."""
        return alpha_cut_matrix(self._adj)
