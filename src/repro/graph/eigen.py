"""The one eigensolver entry point: the k smallest eigenpairs of a symmetric matrix.

Every spectral stage calls :func:`smallest_eigenpairs`: the alpha-Cut
embedding (:mod:`repro.core.spectral`, on the matrix-free
:class:`repro.graph.laplacian.AlphaCutOperator`), the normalized-cut
baseline, multilevel bisection and the eigengap heuristic (on sparse
Laplacians). It stands in for the paper's high-performance Matlab
eigensolver, with one policy:

* dense LAPACK ``numpy.linalg.eigh`` of ``op.toarray()`` at or below
  :data:`DENSE_CUTOFF` (200) nodes, or when ``k >= n - 1`` (exact, and
  outside ARPACK's ``k < n`` range);
* above it ARPACK ``eigsh`` from a fixed, seeded start vector:
  shift-invert at ``sigma=0`` for a sparse matrix, ``which="SA"`` for a
  matrix-free operator (which cannot be factorised);
* a failed shift-invert factorisation retries with ``which="SA"``; an
  ARPACK run that does not converge serves its partial pairs when it
  has at least k of them, else the dense path; any other ARPACK error
  (e.g. -9, a start vector the operator maps to zero) takes the dense
  path.

The cutoff is the measured crossover, on both kinds of input it
switches (k=8, BFS-connected subgraphs of an M2x0.25 supergraph,
median ms, dense ``eigh`` / ARPACK). On the alpha-Cut operator with
``which="SA"``: 1.9/4.3 at 96 nodes, 6.4/5.0 at 200, 15.8/5.5 at 325,
411/17.7 at 1,300. On the sparse normalized Laplacian with shift-invert:
2.4/3.8 at 160, 3.7/2.4 at 200, 11.1/3.1 at 325, 343/24 at 1,300.
``benchmarks/test_bench_eigensolvers.py`` records the sweep. Below it,
the few-node meta-graph bipartitions stay on the dense path, where
ARPACK is slower and can fail on degenerate (edgeless) inputs.

Every solve, the shift-invert retry and the dense ``eigh`` included,
runs with scipy's OpenBLAS (which ARPACK calls) and numpy's own copy
(which ``eigh`` calls) on one thread, and the previous counts are
restored afterwards (:func:`_one_blas_thread`; a no-op for a copy that
is not found). ARPACK's
kernels are too small to gain from a second thread, and an OpenBLAS
worker keeps spinning after each call, so at the default two threads a
solve bills about twice its wall time in CPU. On the alpha-Cut operator
of the M1/M2/M3 supergraphs (k=8, median of 3, CPU counted through a
0.4 s idle window after the solve), wall / CPU seconds at one thread
against two: 0.009/0.009 vs 0.009/0.144 at 1,328 nodes, 0.053/0.054
vs 0.053/0.188 at 7,201, 0.197/0.198 vs 0.200/0.513 at 25,222 and
0.461/0.462 vs 0.390/0.895 at 37,512. The pin also makes a solve
independent of the host: up to 7,201 nodes the eigenvectors are
bit-identical at one and two threads, from 25,222 nodes their bytes
differ. A dense ``eigh`` at two threads stalls while the parked
worker wakes: solves 10 ms apart (60 of each, 2-core host) took a
median 13.9 ms at n=50 against 0.53 ms at one thread, up to 14.6 ms
against at most 1.5 ms at n=98, and a median 5.0 against 4.4 ms at
n=200.

ARPACK runs at ``tol=0`` (machine precision) with scipy's default
``ncv``. The alternatives were measured on the nine ``table3`` seed-1
supergraphs (6.6k-38k nodes, k=8; 2.45 s summed over min-of-3 solves)
and none is taken:

* ``tol=1e-9`` cuts the solves to 1.76 s (-28%), but at ``1e-8`` and
  ``1e-9`` ARPACK misses one copy of a double eigenvalue: on the
  chorded 60-node ring of ``tests/test_core_spectral.py`` two of three
  eigenvalues come back off by up to 0.31. At ``1e-8`` the 200-node
  ring of ``tests/test_graph_eigen.py`` also ends at residual 3.3e-8,
  over that test's 1e-8 bound.
* Another ``ncv`` is no faster: at ``tol=1e-9``, 12/14/16 take
  4.77/2.76/2.10 s against 1.76 s at the default and 24 takes 1.73 s;
  at ``tol=0``, 30 and 48 do not beat the default.
* A Chebyshev-filtered start vector (degree 10-40) saves 4-6%.
* Shift-invert at ``sigma = -(max degree)``, SuperLU plus
  Sherman-Morrison for the rank-one term, is 3-7x slower; ``splu``
  alone takes 340 ms at 25k nodes and 627 ms at 38k.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from repro.exceptions import PartitioningError
from repro.obs.metrics import incr

DENSE_CUTOFF = 200


def _start_vector(n: int) -> np.ndarray:
    """ARPACK's start vector. Left to ARPACK, it comes from a generator
    whose state carries over between calls, so a solve would depend on
    what the process solved before. Not the constant vector: that is an
    exact eigenvector of the alpha-Cut matrix (``M 1 = d - d = 0``)."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def _blas_libraries(package) -> Iterator[Path]:
    """Where ``package``'s OpenBLAS may live: the copy its wheel bundles
    (``scipy.libs``, ``numpy.libs``), then a system or conda
    ``libopenblas``."""
    bundled = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    yield from sorted(bundled.glob("*openblas*"))
    found = ctypes.util.find_library("openblas")
    if found:
        yield Path(found)
    yield from sorted((Path(sys.prefix) / "lib").glob("libopenblas*.so*"))


def _find_blas_controls(package) -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get_num_threads, set_num_threads)`` of ``package``'s OpenBLAS,
    or None.

    Opening a library the process has already loaded returns that same
    library, so the setters act on the copy the package calls. numpy's
    64-bit-integer build suffixes its symbols with ``64_``."""
    for path in _blas_libraries(package):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("", "64_"):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


#: scipy's OpenBLAS, which ARPACK calls
_BLAS_CONTROLS = _find_blas_controls(scipy)
#: numpy's OpenBLAS, which dense ``eigh`` calls (a wheel bundles its own
#: copy; without one this finds the system library, possibly scipy's)
_NUMPY_BLAS_CONTROLS = _find_blas_controls(np)
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: List[Tuple[Callable[[int], None], int]] = []


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with scipy's and numpy's OpenBLAS on one thread (a
    no-op for a copy that was not found).

    The counts are process-wide, so concurrent solves share one pin:
    the first to enter saves and sets them, the last to leave restores
    them."""
    global _blas_depth, _blas_saved
    controls = [c for c in (_BLAS_CONTROLS, _NUMPY_BLAS_CONTROLS) if c is not None]
    if not controls:
        yield
        return
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_, get()) for get, set_ in controls]
            for __, set_ in controls:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                # in reverse, so a library found twice ends at its saved count
                for set_, count in reversed(_blas_saved):
                    set_(count)


def _arpack(op, k: int) -> Tuple[np.ndarray, np.ndarray]:
    v0 = _start_vector(op.shape[0])
    with _one_blas_thread():
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
        column norm of ``op v - lambda v``), ``converged`` (False when
        ARPACK stopped short of convergence), ``fallback_reason``
        (None unless ARPACK fell back: ``arpack_no_convergence_partial_pairs``,
        ``arpack_no_convergence_dense_fallback`` or
        ``arpack_error_dense_fallback``) and ``blas_threads`` (1 when
        the ARPACK attempt ran on scipy's OpenBLAS pinned to one thread;
        None for a dense-only solve, or when no OpenBLAS was found and
        ARPACK ran at the host's count).
    """
    n = op.shape[0]
    if not 1 <= k <= n:
        raise PartitioningError(f"need 1 <= k <= n, got k={k}, n={n}")
    solver, converged, fallback_reason, blas_threads = "dense", True, None, None
    values: Optional[np.ndarray] = None
    if n > DENSE_CUTOFF and k < n - 1:
        incr("eigensolver.arpack_calls")
        solver = "arpack"
        blas_threads = None if _BLAS_CONTROLS is None else 1
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
        except ArpackError:
            incr("eigensolver.arpack_error")
            solver = "dense"
            fallback_reason = "arpack_error_dense_fallback"
        if values is not None:
            order = np.argsort(values)[:k]
            values, vectors = values[order], vectors[:, order]
    else:
        incr("eigensolver.dense_calls")
    if values is None:
        with _one_blas_thread():
            values, vectors = np.linalg.eigh(op.toarray())
        values, vectors = values[:k], vectors[:, :k]
    outcome = {
        "solver": solver,
        "n": int(n),
        "k": int(k),
        "residual": _residual(op, values, vectors),
        "converged": converged,
        "fallback_reason": fallback_reason,
        "blas_threads": blas_threads,
    }
    return values, vectors, outcome
