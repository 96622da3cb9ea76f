"""Failure-injection tests: degraded dependencies must not break results.

The spectral stage leans on ARPACK, which can legitimately fail to
converge; these tests force those failures and assert the documented
fallbacks produce correct eigenpairs anyway.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import repro.baselines.ncut as ncut_mod
import repro.core.spectral as spectral_mod
import repro.graph.eigen as eigen_mod
from repro.graph.adjacency import Graph
from repro.graph.laplacian import alpha_cut_matrix, normalized_laplacian


@pytest.fixture
def ring_graph():
    n = 80
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 9) % n, 0.5) for i in range(n)]
    return Graph(n, edges=edges)


def _failing_eigsh(*args, **kwargs):
    raise ArpackNoConvergence("injected failure", np.array([]), np.array([[]]))


class TestAlphaCutEigsolverFallback:
    def test_arpack_failure_falls_back_to_dense(
        self, ring_graph, monkeypatch
    ):
        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)
        monkeypatch.setattr(eigen_mod, "eigsh", _failing_eigsh)
        values, vectors = spectral_mod.smallest_eigenvectors(
            ring_graph.adjacency, 3
        )
        expected = np.linalg.eigvalsh(alpha_cut_matrix(ring_graph.adjacency))
        np.testing.assert_allclose(values, expected[:3], atol=1e-8)

    def test_partial_convergence_used_when_sufficient(
        self, ring_graph, monkeypatch
    ):
        """ARPACK that converged >= k pairs before failing still serves."""
        m = alpha_cut_matrix(ring_graph.adjacency)
        true_vals, true_vecs = np.linalg.eigh(m)

        def _partially_failing(*args, **kwargs):
            raise ArpackNoConvergence(
                "partial", true_vals[:4], true_vecs[:, :4]
            )

        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)
        monkeypatch.setattr(eigen_mod, "eigsh", _partially_failing)
        values, __ = spectral_mod.smallest_eigenvectors(ring_graph.adjacency, 3)
        np.testing.assert_allclose(np.sort(values), true_vals[:3], atol=1e-8)

    def test_partitioning_survives_injected_failure(
        self, ring_graph, monkeypatch
    ):
        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)
        monkeypatch.setattr(eigen_mod, "eigsh", _failing_eigsh)
        labels = spectral_mod.spectral_partition(ring_graph.adjacency, 3, seed=0)
        assert labels.shape == (ring_graph.n_nodes,)
        assert labels.max() + 1 >= 3


class TestNcutEigsolverFallback:
    def test_shift_invert_failure_falls_back(self, ring_graph, monkeypatch):
        calls = []
        real_eigsh = eigen_mod.eigsh

        def _fail_shift_invert(*args, **kwargs):
            calls.append(kwargs)
            if kwargs.get("sigma") is not None:
                raise RuntimeError("injected factorization failure")
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)
        monkeypatch.setattr(eigen_mod, "eigsh", _fail_shift_invert)
        z = ncut_mod.ncut_embedding(ring_graph.adjacency, 3)
        assert z.shape == (ring_graph.n_nodes, 3)
        assert len(calls) >= 2  # first shift-invert, then the retry

    def test_total_failure_falls_back_to_dense(self, ring_graph, monkeypatch):
        monkeypatch.setattr(eigen_mod, "DENSE_CUTOFF", 10)
        monkeypatch.setattr(eigen_mod, "eigsh", _failing_eigsh)
        z = ncut_mod.ncut_embedding(ring_graph.adjacency, 3)
        lap = normalized_laplacian(ring_graph.adjacency).toarray()
        __, vectors = np.linalg.eigh(lap)
        # rows normalised, same subspace dimension
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0)
