"""Tests for repro.graph.laplacian — matrix builders and the M/B duality."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graphs_with_labels

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.laplacian import (
    AlphaCutOperator,
    alpha_cut_matrix,
    degree_matrix,
    degree_vector,
    laplacian_matrix,
    modularity_matrix,
    normalized_laplacian,
)


@pytest.fixture
def weighted_adj():
    return Graph(4, edges=[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0)]).adjacency


class TestDegree:
    def test_degree_vector(self, weighted_adj):
        np.testing.assert_array_equal(
            degree_vector(weighted_adj), [2.0, 3.0, 4.0, 3.0]
        )

    def test_degree_matrix_diagonal(self, weighted_adj):
        d = degree_matrix(weighted_adj)
        np.testing.assert_array_equal(d.diagonal(), [2.0, 3.0, 4.0, 3.0])
        assert d.nnz == 4

    def test_non_square_raises(self):
        with pytest.raises(GraphError):
            degree_vector(np.zeros((2, 3)))


class TestLaplacian:
    def test_rows_sum_to_zero(self, weighted_adj):
        lap = laplacian_matrix(weighted_adj)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_psd(self, weighted_adj):
        values = np.linalg.eigvalsh(laplacian_matrix(weighted_adj).toarray())
        assert values.min() >= -1e-10

    def test_constant_vector_in_kernel(self, weighted_adj):
        lap = laplacian_matrix(weighted_adj)
        np.testing.assert_allclose(lap @ np.ones(4), 0.0, atol=1e-12)


class TestNormalizedLaplacian:
    def test_eigenvalues_in_zero_two(self, weighted_adj):
        values = np.linalg.eigvalsh(normalized_laplacian(weighted_adj).toarray())
        assert values.min() >= -1e-10
        assert values.max() <= 2.0 + 1e-10

    def test_smallest_eigenvalue_zero_when_connected(self, weighted_adj):
        values = np.linalg.eigvalsh(normalized_laplacian(weighted_adj).toarray())
        assert abs(values[0]) < 1e-10

    def test_isolated_node_no_nan(self):
        adj = Graph(3, edges=[(0, 1)]).adjacency
        lap = normalized_laplacian(adj).toarray()
        assert np.isfinite(lap).all()


class TestModularityAlphaCutDuality:
    def test_m_equals_minus_b(self, weighted_adj):
        """The paper's observation: M = -B exactly."""
        m = alpha_cut_matrix(weighted_adj)
        b = modularity_matrix(weighted_adj)
        np.testing.assert_allclose(m, -b, atol=1e-12)

    def test_m_is_symmetric(self, weighted_adj):
        m = alpha_cut_matrix(weighted_adj)
        np.testing.assert_allclose(m, m.T)

    def test_m_rows_sum_to_zero(self, weighted_adj):
        # M 1 = d * sum(d)/sum(d) - A 1 = d - d = 0
        m = alpha_cut_matrix(weighted_adj)
        np.testing.assert_allclose(m @ np.ones(4), 0.0, atol=1e-12)

    def test_empty_graph_m_is_minus_a(self):
        adj = sp.csr_matrix((3, 3))
        np.testing.assert_array_equal(alpha_cut_matrix(adj), np.zeros((3, 3)))


class TestAlphaCutOperator:
    def test_matvec_matches_dense(self, weighted_adj, rng):
        op = AlphaCutOperator(weighted_adj)
        m = alpha_cut_matrix(weighted_adj)
        x = rng.normal(size=4)
        np.testing.assert_allclose(op @ x, m @ x, atol=1e-12)

    def test_matmat_matches_dense(self, weighted_adj, rng):
        op = AlphaCutOperator(weighted_adj)
        m = alpha_cut_matrix(weighted_adj)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(op @ x, m @ x, atol=1e-12)

    @given(graph=graphs_with_labels(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matvec_and_matmat_match_dense_on_random_graphs(self, graph, seed):
        adj, __ = graph
        op = AlphaCutOperator(adj)
        m = alpha_cut_matrix(adj)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=adj.shape[0])
        X = rng.normal(size=(adj.shape[0], 3))
        np.testing.assert_allclose(op.matvec(x), m @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.matmat(X), m @ X, rtol=0, atol=1e-12)

    def test_symmetric_adjoint(self, weighted_adj):
        op = AlphaCutOperator(weighted_adj)
        assert op.H is op

    def test_eigsh_agrees_with_dense(self):
        g = Graph(
            12,
            edges=[(i, (i + 1) % 12) for i in range(12)]
            + [(i, (i + 3) % 12) for i in range(12)],
        )
        op = AlphaCutOperator(g.adjacency)
        from scipy.sparse.linalg import eigsh

        sparse_vals = np.sort(eigsh(op, k=3, which="SA")[0])
        dense_vals = np.linalg.eigvalsh(alpha_cut_matrix(g.adjacency))[:3]
        np.testing.assert_allclose(sparse_vals, dense_vals, atol=1e-8)
