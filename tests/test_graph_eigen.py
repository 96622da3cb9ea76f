"""Tests for the one eigensolver entry point, repro.graph.eigen."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.graph.eigen as eigen_mod
from repro.baselines.ncut import ncut_embedding
from repro.core.spectral import smallest_eigenvectors
from repro.exceptions import GraphError, PartitioningError
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import AlphaCutOperator, alpha_cut_matrix, normalized_laplacian


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

    def test_k_near_n_is_dense(self, arpack_regime):
        __, __, outcome = smallest_eigenpairs(normalized_laplacian(_chorded_ring(30)), 29)
        assert outcome["solver"] == "dense"

    def test_invalid_k(self):
        op = normalized_laplacian(_chorded_ring(20))
        for k in (0, 21):
            with pytest.raises(PartitioningError):
                smallest_eigenpairs(op, k)


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
