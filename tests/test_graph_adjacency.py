"""Tests for repro.graph.adjacency.Graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n_nodes == 0
        assert g.n_edges == 0

    def test_basic_edges(self):
        g = Graph(3, edges=[(0, 1), (1, 2)])
        assert g.n_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)  # undirected
        assert not g.has_edge(0, 2)

    def test_weighted_edges(self):
        g = Graph(2, edges=[(0, 1, 0.5)])
        assert g.edge_weight(0, 1) == 0.5

    def test_duplicate_edges_merge_by_sum(self):
        g = Graph(2, edges=[(0, 1, 0.5), (0, 1, 0.25)])
        assert g.edge_weight(0, 1) == 0.75
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, edges=[(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, edges=[(0, 5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="negative weight"):
            Graph(2, edges=[(0, 1, -1.0)])

    def test_negative_n_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_malformed_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, edges=[(0, 1, 2, 3)])

    def test_features_default_zero(self):
        g = Graph(3)
        np.testing.assert_array_equal(g.features, np.zeros(3))

    def test_features_stored(self):
        g = Graph(2, features=[1.5, 2.5])
        np.testing.assert_array_equal(g.features, [1.5, 2.5])

    def test_features_wrong_shape_rejected(self):
        with pytest.raises(GraphError, match="shape"):
            Graph(2, features=[1.0])

    def test_features_readonly(self):
        g = Graph(2, features=[1.0, 2.0])
        with pytest.raises(ValueError):
            g.features[0] = 9.0


class TestFromAdjacency:
    def test_round_trip(self):
        g = Graph(3, edges=[(0, 1, 2.0), (1, 2, 3.0)])
        g2 = Graph.from_adjacency(g.adjacency, features=g.features)
        assert g2.n_edges == 2
        assert g2.edge_weight(1, 2) == 3.0

    def test_dense_input(self):
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        g = Graph.from_adjacency(adj)
        assert g.n_edges == 1

    def test_asymmetric_rejected(self):
        adj = np.array([[0, 1], [0, 0]], dtype=float)
        with pytest.raises(GraphError, match="symmetric"):
            Graph.from_adjacency(adj)

    def test_diagonal_stripped(self):
        adj = np.array([[2.0, 1.0], [1.0, 0.0]])
        g = Graph.from_adjacency(adj)
        assert g.edge_weight(0, 0) == 0.0
        assert g.n_edges == 1

    def test_negative_rejected(self):
        adj = np.array([[0, -1.0], [-1.0, 0]])
        with pytest.raises(GraphError, match="non-negative"):
            Graph.from_adjacency(adj)

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            Graph.from_adjacency(np.zeros((2, 3)))


class TestQueries:
    def test_degree(self):
        g = Graph(3, edges=[(0, 1, 2.0), (0, 2, 3.0)])
        np.testing.assert_array_equal(g.degree(), [5.0, 2.0, 3.0])

    def test_neighbors(self):
        g = Graph(4, edges=[(0, 1), (0, 2)])
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.neighbors(3).size == 0

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2).neighbors(5)

    def test_edges_iteration_once_per_edge(self):
        g = Graph(3, edges=[(0, 1, 2.0), (1, 2, 3.0)])
        edges = list(g.edges())
        assert edges == [(0, 1, 2.0), (1, 2, 3.0)]

    def test_total_weight(self):
        g = Graph(3, edges=[(0, 1, 2.0), (1, 2, 3.0)])
        assert g.total_weight() == 5.0

    def test_repr(self):
        assert "n_nodes=3" in repr(Graph(3))


class TestSubgraph:
    def test_induced_subgraph(self):
        g = Graph(4, edges=[(0, 1), (1, 2), (2, 3)], features=[0, 1, 2, 3])
        sub, idx = g.subgraph([1, 2])
        assert sub.n_nodes == 2
        assert sub.has_edge(0, 1)
        np.testing.assert_array_equal(idx, [1, 2])
        np.testing.assert_array_equal(sub.features, [1.0, 2.0])

    def test_subgraph_drops_external_edges(self):
        g = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        sub, __ = g.subgraph([0, 3])
        assert sub.n_edges == 0

    def test_duplicate_nodes_rejected(self):
        g = Graph(3, edges=[(0, 1)])
        with pytest.raises(GraphError, match="unique"):
            g.subgraph([0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3).subgraph([5])

    @pytest.mark.parametrize(
        "make",
        [
            lambda ids: np.asarray(ids),
            lambda ids: np.asarray(ids, dtype=np.int32),
            list,
            tuple,
            lambda ids: (i for i in ids),
        ],
        ids=["int64-array", "int32-array", "list", "tuple", "generator"],
    )
    def test_node_containers(self, make):
        g = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)], features=[0, 1, 2, 3, 4])
        sub, idx = g.subgraph(make([3, 1, 2]))
        np.testing.assert_array_equal(idx, [3, 1, 2])
        np.testing.assert_array_equal(sub.features, [3.0, 1.0, 2.0])
        # order is preserved: 3-2 and 1-2 are edges, 3-1 is not
        assert sub.has_edge(0, 2) and sub.has_edge(1, 2) and not sub.has_edge(0, 1)
        with pytest.raises(GraphError, match="unique"):
            g.subgraph(make([1, 2, 1]))
        with pytest.raises(GraphError, match="out of range"):
            g.subgraph(make([0, 5]))
        with pytest.raises(GraphError, match="out of range"):
            g.subgraph(make([-1, 2]))

    def test_index_is_not_the_callers_array(self):
        g = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        nodes = np.array([1, 2])
        __, idx = g.subgraph(nodes)
        nodes[0] = 3
        np.testing.assert_array_equal(idx, [1, 2])

    def test_with_features(self):
        g = Graph(2, edges=[(0, 1)])
        g2 = g.with_features([3.0, 4.0])
        np.testing.assert_array_equal(g2.features, [3.0, 4.0])
        assert g2.n_edges == 1

    def test_with_features_shares_adjacency_and_copies_features(self):
        g = Graph(3, edges=[(0, 1), (1, 2)])
        feats = np.array([1.0, 2.0, 3.0])
        g2 = g.with_features(feats)
        assert g2.adjacency is g.adjacency
        feats[0] = 99.0
        np.testing.assert_array_equal(g2.features, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g.features, np.zeros(3))

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_with_features_rejects_wrong_shape(self, bad):
        with pytest.raises(GraphError, match="shape"):
            Graph(3, edges=[(0, 1)]).with_features(bad)
