"""The one eigensolver entry point: the k smallest eigenpairs of a symmetric matrix.

Every spectral stage calls :func:`smallest_eigenpairs`: the alpha-Cut
embedding (:mod:`repro.core.spectral`, on the matrix-free
:class:`repro.graph.laplacian.AlphaCutOperator`), the normalized-cut
baseline, multilevel bisection and the eigengap heuristic (on sparse
Laplacians). It stands in for the paper's high-performance Matlab
eigensolver, with one policy:

* dense LAPACK ``numpy.linalg.eigh`` of ``op.toarray()`` at or below
  :data:`DENSE_CUTOFF` nodes, or when ``k >= n - 1`` (exact, fast at
  small n, and outside ARPACK's ``k < n`` range);
* above it ARPACK ``eigsh`` from a fixed, seeded start vector:
  shift-invert at ``sigma=0`` for a sparse matrix, ``which="SA"`` for a
  matrix-free operator (which cannot be factorised);
* a failed shift-invert factorisation retries with ``which="SA"``; an
  ARPACK run that does not converge serves its partial pairs when it
  has at least k of them, else the dense path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from repro.exceptions import PartitioningError
from repro.obs.metrics import incr

DENSE_CUTOFF = 1500


def _start_vector(n: int) -> np.ndarray:
    """ARPACK's start vector. Left to ARPACK, it comes from a generator
    whose state carries over between calls, so a solve would depend on
    what the process solved before. Not the constant vector: that is an
    exact eigenvector of the alpha-Cut matrix (``M 1 = d - d = 0``)."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def _arpack(op, k: int) -> Tuple[np.ndarray, np.ndarray]:
    v0 = _start_vector(op.shape[0])
    if sp.issparse(op):
        try:
            return eigsh(op, k=k, sigma=0.0, which="LM", v0=v0)
        except ArpackNoConvergence:
            raise
        except RuntimeError:  # the sigma=0 factorisation failed
            pass
    return eigsh(op, k=k, which="SA", v0=v0)


def _residual(op, values: np.ndarray, vectors: np.ndarray) -> float:
    """``max_i ||op v_i - lambda_i v_i||``, the solver-independent
    quality of the returned pairs (k matvecs)."""
    norms = np.linalg.norm(op @ vectors - vectors * values, axis=0)
    return float(norms.max()) if norms.size else 0.0


def smallest_eigenpairs(op, k: int) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
    """The k smallest eigenpairs of the symmetric ``op``.

    Parameters
    ----------
    op:
        A scipy sparse matrix, or a matrix-free ``LinearOperator`` that
        also has ``toarray()`` (for the dense path).
    k:
        Number of smallest eigenpairs, ``1 <= k <= n``.

    Returns
    -------
    (values, vectors, outcome):
        ``values`` ascending, shape (k,); ``vectors`` the matching
        columns, shape (n, k); ``outcome`` a JSON-serialisable record:
        ``solver`` (``dense``, ``arpack`` or ``arpack_partial``, the
        path that produced the pairs), ``n``/``k``, ``residual`` (max
        column norm of ``op v - lambda v``), ``converged`` and
        ``fallback_reason`` (None unless ARPACK fell back).
    """
    n = op.shape[0]
    if not 1 <= k <= n:
        raise PartitioningError(f"need 1 <= k <= n, got k={k}, n={n}")
    solver, converged, fallback_reason = "dense", True, None
    values: Optional[np.ndarray] = None
    if n > DENSE_CUTOFF and k < n - 1:
        incr("eigensolver.arpack_calls")
        solver = "arpack"
        try:
            values, vectors = _arpack(op, k)
        except ArpackNoConvergence as exc:
            incr("eigensolver.arpack_no_convergence")
            converged = False
            if exc.eigenvalues is not None and len(exc.eigenvalues) >= k:
                solver = "arpack_partial"
                fallback_reason = "arpack_no_convergence_partial_pairs"
                values, vectors = exc.eigenvalues, exc.eigenvectors
            else:
                solver = "dense"
                fallback_reason = "arpack_no_convergence_dense_fallback"
        if values is not None:
            order = np.argsort(values)[:k]
            values, vectors = values[order], vectors[:, order]
    else:
        incr("eigensolver.dense_calls")
    if values is None:
        values, vectors = np.linalg.eigh(op.toarray())
        values, vectors = values[:k], vectors[:, :k]
    outcome = {
        "solver": solver,
        "n": int(n),
        "k": int(k),
        "residual": _residual(op, values, vectors),
        "converged": converged,
        "fallback_reason": fallback_reason,
    }
    return values, vectors, outcome
