"""Tests for the one eigensolver entry point, repro.graph.eigen."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import repro.graph.eigen as eigen_mod
from repro.baselines.ncut import ncut_embedding
from repro.core.spectral import smallest_eigenvectors
from repro.exceptions import GraphError, PartitioningError
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import AlphaCutOperator, alpha_cut_matrix, normalized_laplacian
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, activate_tracer


def _chorded_ring(n: int, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    rows = np.r_[np.arange(n), np.arange(n)]
    cols = np.r_[(np.arange(n) + 1) % n, (np.arange(n) + 17) % n]
    upper = sp.coo_matrix((rng.uniform(0.5, 2.0, rows.size), (rows, cols)), shape=(n, n))
    return (upper + upper.T).tocsr()


@pytest.fixture
def arpack_regime(monkeypatch):
    monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)


class TestPolicy:
    def test_dense_at_or_below_cutoff(self):
        adj = _chorded_ring(60)
        values, vectors, outcome = smallest_eigenpairs(AlphaCutOperator(adj), 4)
        assert outcome["solver"] == "dense" and outcome["n"] == 60
        expected = np.linalg.eigh(alpha_cut_matrix(adj))
        np.testing.assert_array_equal(values, expected[0][:4])
        np.testing.assert_array_equal(vectors, expected[1][:, :4])

    def test_arpack_above_cutoff_agrees_with_dense(self, arpack_regime):
        adj = _chorded_ring(200)
        for op in (AlphaCutOperator(adj), normalized_laplacian(adj)):
            values, vectors, outcome = smallest_eigenpairs(op, 5)
            assert outcome["solver"] == "arpack" and outcome["converged"]
            assert np.all(np.diff(values) >= 0)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(op.toarray())[:5], atol=1e-8)
            assert outcome["residual"] < 1e-8

    def test_sparse_matrix_takes_shift_invert(self, arpack_regime, monkeypatch):
        calls = []
        real = eigen_mod.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs.get("sigma"))
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen_mod, "eigsh", spy)
        adj = _chorded_ring(200)
        smallest_eigenpairs(normalized_laplacian(adj), 3)
        smallest_eigenpairs(AlphaCutOperator(adj), 3)
        assert calls == [0.0, None]

    @pytest.mark.parametrize("offset, solver", [(0, "dense"), (1, "arpack")])
    def test_rule_at_the_real_cutoff(self, offset, solver):
        op = AlphaCutOperator(_chorded_ring(eigen_mod.DENSE_CUTOFF + offset))
        values, __, outcome = smallest_eigenpairs(op, 8)
        assert outcome["solver"] == solver
        np.testing.assert_allclose(values, np.linalg.eigvalsh(op.toarray())[:8], atol=1e-8)

    def test_k_near_n_is_dense(self, arpack_regime):
        __, __, outcome = smallest_eigenpairs(normalized_laplacian(_chorded_ring(30)), 29)
        assert outcome["solver"] == "dense"

    def test_invalid_k(self):
        op = normalized_laplacian(_chorded_ring(20))
        for k in (0, 21):
            with pytest.raises(PartitioningError):
                smallest_eigenpairs(op, k)


class TestArpackErrorFallback:
    """ARPACK errors other than no-convergence take the dense path."""

    @staticmethod
    def _check_dense_fallback(op, k):
        registry = MetricsRegistry()
        with use_registry(registry):
            values, vectors, outcome = smallest_eigenpairs(op, k)
        expected = np.linalg.eigh(op.toarray())
        np.testing.assert_array_equal(values, expected[0][:k])
        np.testing.assert_array_equal(vectors, expected[1][:, :k])
        assert outcome["solver"] == "dense"
        assert outcome["fallback_reason"] == "arpack_error_dense_fallback"
        assert registry.counter("eigensolver.arpack_error") == 1.0

    def test_zero_start_vector_error(self, monkeypatch):
        # an edgeless meta-graph: the alpha-Cut operator maps ARPACK's
        # start vector to zero, and ARPACK stops with error -9
        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 0)
        op = AlphaCutOperator(sp.csr_matrix((4, 4)))
        with pytest.raises(ArpackError, match="-9"):
            eigen_mod.eigsh(op, k=2, which="SA", v0=eigen_mod._start_vector(4))
        self._check_dense_fallback(op, 2)

    def test_injected_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ArpackError(-9)

        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 0)
        monkeypatch.setattr(eigen_mod, "eigsh", failing)
        rng = np.random.default_rng(316)
        adj = np.triu(rng.random((4, 4)) * (rng.random((4, 4)) < 0.4), 1)
        self._check_dense_fallback(AlphaCutOperator(sp.csr_matrix(adj + adj.T)), 2)


class TestDeterministicStart:
    def test_repeat_solve_bit_identical(self, arpack_regime):
        adj = _chorded_ring(400)
        op = AlphaCutOperator(adj)
        __, first, __ = smallest_eigenpairs(op, 6)
        smallest_eigenpairs(normalized_laplacian(adj), 3)  # moves ARPACK's own generator
        __, again, __ = smallest_eigenpairs(op, 6)
        np.testing.assert_array_equal(first, again)


class TestNonFiniteWeights:
    @staticmethod
    def _nan_adjacency(n: int) -> sp.csr_matrix:
        adj = _chorded_ring(n).tolil()
        adj[0, 1] = adj[1, 0] = np.nan
        return adj.tocsr()

    def test_dense_path_rejects(self):
        with pytest.raises(GraphError, match="non-finite"):
            smallest_eigenvectors(self._nan_adjacency(40), 3)

    def test_arpack_path_rejects(self, arpack_regime):
        with pytest.raises(GraphError, match="non-finite"):
            smallest_eigenvectors(self._nan_adjacency(40), 3)

    def test_ncut_embedding_rejects(self):
        with pytest.raises(GraphError, match="non-finite"):
            ncut_embedding(self._nan_adjacency(40), 3)

    def test_infinite_weight_rejected(self):
        adj = _chorded_ring(20).tolil()
        adj[2, 3] = adj[3, 2] = np.inf
        with pytest.raises(GraphError):
            normalized_laplacian(adj.tocsr())


class TestOneBlasThread:
    """Every ARPACK solve runs on scipy's OpenBLAS pinned to one thread,
    and the previous count comes back however the solve ends."""

    @pytest.fixture
    def get_threads(self, arpack_regime):
        if eigen_mod._BLAS_CONTROLS is None:
            pytest.skip("no OpenBLAS thread controls in this scipy")
        get, set_ = eigen_mod._BLAS_CONTROLS
        original = get()
        set_(2)  # a count the pin visibly changes
        yield get
        set_(original)

    @staticmethod
    def _spy(monkeypatch, get, fail=None):
        """Replace eigsh with one that records the thread count it runs
        at, then raises ``fail(kwargs)`` if that returns an exception."""
        seen = []
        real = eigen_mod.eigsh

        def spy(*args, **kwargs):
            seen.append(get())
            exc = fail(kwargs) if fail else None
            if exc is not None:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen_mod, "eigsh", spy)
        return seen

    def test_solve_runs_at_one_thread_and_restores(self, get_threads, monkeypatch):
        seen = self._spy(monkeypatch, get_threads)
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(_chorded_ring(200)), 4)
        assert seen == [1]
        assert outcome["solver"] == "arpack" and outcome["blas_threads"] == 1
        assert get_threads() == 2

    def test_restored_after_no_convergence(self, get_threads, monkeypatch):
        adj = _chorded_ring(200)
        values, vectors = np.linalg.eigh(alpha_cut_matrix(adj))
        partial = ArpackNoConvergence("stopped", values[:4], vectors[:, :4])
        seen = self._spy(monkeypatch, get_threads, lambda kwargs: partial)
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(adj), 4)
        assert seen == [1] and outcome["solver"] == "arpack_partial"
        assert get_threads() == 2

    def test_restored_after_arpack_error(self, get_threads, monkeypatch):
        seen = self._spy(monkeypatch, get_threads, lambda kwargs: ArpackError(-9))
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(_chorded_ring(200)), 4)
        assert seen == [1] and outcome["fallback_reason"] == "arpack_error_dense_fallback"
        assert get_threads() == 2

    def test_restored_after_shift_invert_retry(self, get_threads, monkeypatch):
        def singular(kwargs):
            return RuntimeError("factor is exactly singular") if "sigma" in kwargs else None

        seen = self._spy(monkeypatch, get_threads, singular)
        __, __, outcome = smallest_eigenpairs(normalized_laplacian(_chorded_ring(200)), 4)
        assert seen == [1, 1] and outcome["solver"] == "arpack"
        assert get_threads() == 2

    def test_concurrent_solves_share_the_pin(self, get_threads, monkeypatch):
        # both solves are inside eigsh at once (the barrier would break
        # if the guard ran them one at a time); the first to enter leaves
        # first, and the other must still run pinned after it has gone
        barrier = threading.Barrier(2, timeout=30)
        entered, first_left, inside = [], threading.Event(), []
        lock = threading.Lock()

        def rendezvous(kwargs):
            with lock:
                entered.append(threading.get_ident())
            barrier.wait()
            if entered[0] != threading.get_ident():
                assert first_left.wait(30)
                inside.append(get_threads())

        seen = self._spy(monkeypatch, get_threads, rendezvous)
        op = AlphaCutOperator(_chorded_ring(300))
        errors = []

        def solve():
            try:
                smallest_eigenpairs(op, 4)
            except BaseException as exc:  # surfaced below
                errors.append(exc)
            finally:
                if entered and entered[0] == threading.get_ident():
                    first_left.set()

        workers = [threading.Thread(target=solve) for __ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == [] and seen == [1, 1] and inside == [1]
        assert get_threads() == 2

    def test_eigensolve_span_tagged(self, get_threads):
        tracer = Tracer()
        with activate_tracer(tracer):
            smallest_eigenvectors(_chorded_ring(200), 4)
        (span,) = [s for s in tracer.roots if s.name == "eigensolve"]
        assert span.attrs["solver"] == "arpack" and span.attrs["blas_threads"] == 1

    def test_no_library_found(self, arpack_regime, monkeypatch):
        monkeypatch.setattr(eigen_mod, "_BLAS_CONTROLS", None)
        op = AlphaCutOperator(_chorded_ring(200))
        values, __, outcome = smallest_eigenpairs(op, 4)
        assert outcome["solver"] == "arpack" and outcome["blas_threads"] is None
        np.testing.assert_allclose(values, np.linalg.eigvalsh(op.toarray())[:4], atol=1e-8)

    def test_dense_solve_is_not_tagged(self):
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(_chorded_ring(60)), 4)
        assert outcome["solver"] == "dense" and outcome["blas_threads"] is None


class TestDenseOneBlasThread:
    """The dense ``eigh`` runs on numpy's own OpenBLAS pinned to one
    thread (at two, a parked worker stalls small solves by up to
    ~100 ms), and the previous count comes back."""

    @pytest.fixture
    def numpy_threads(self):
        if eigen_mod._NUMPY_BLAS_CONTROLS is None:
            pytest.skip("numpy has no OpenBLAS thread controls of its own")
        get, set_ = eigen_mod._NUMPY_BLAS_CONTROLS
        original = get()
        set_(2)  # a count the pin visibly changes
        yield get
        set_(original)

    @staticmethod
    def _spy(monkeypatch, get):
        seen = []
        real = np.linalg.eigh

        def spy(matrix):
            seen.append(get())
            return real(matrix)

        monkeypatch.setattr(eigen_mod.np.linalg, "eigh", spy)
        return seen

    def test_dense_solve_runs_at_one_thread_and_restores(self, numpy_threads, monkeypatch):
        seen = self._spy(monkeypatch, numpy_threads)
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(_chorded_ring(60)), 4)
        assert seen == [1] and outcome["solver"] == "dense"
        assert numpy_threads() == 2

    def test_dense_fallback_runs_at_one_thread(
        self, numpy_threads, arpack_regime, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise ArpackError(-9)

        monkeypatch.setattr(eigen_mod, "eigsh", fail)
        seen = self._spy(monkeypatch, numpy_threads)
        __, __, outcome = smallest_eigenpairs(AlphaCutOperator(_chorded_ring(60)), 4)
        assert seen == [1] and outcome["fallback_reason"] == "arpack_error_dense_fallback"
        assert numpy_threads() == 2
