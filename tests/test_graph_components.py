"""Tests for repro.graph.components."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import connected_components_bfs
from strategies import graphs_with_labels

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import (
    connected_components,
    constrained_components,
    count_constrained_components,
    is_connected,
)


def _adj(n, edges):
    return Graph(n, edges=edges).adjacency


class TestConnectedComponents:
    def test_single_component(self):
        comp = connected_components(_adj(3, [(0, 1), (1, 2)]))
        assert comp.max() == 0

    def test_two_components(self):
        comp = connected_components(_adj(4, [(0, 1), (2, 3)]))
        assert comp.max() == 1
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]

    def test_isolated_nodes(self):
        comp = connected_components(_adj(3, []))
        assert sorted(comp.tolist()) == [0, 1, 2]

    def test_empty_graph(self):
        comp = connected_components(sp.csr_matrix((0, 0)))
        assert comp.size == 0

    def test_ids_in_discovery_order(self):
        comp = connected_components(_adj(4, [(0, 1), (2, 3)]))
        assert comp[0] == 0 and comp[2] == 1

    def test_non_square_raises(self):
        with pytest.raises(GraphError):
            connected_components(np.zeros((2, 3)))


class TestConstrainedComponents:
    def test_labels_split_components(self):
        # path 0-1-2-3 with labels [0, 0, 1, 1] -> two components
        comp = constrained_components(_adj(4, [(0, 1), (1, 2), (2, 3)]), [0, 0, 1, 1])
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]

    def test_same_label_disconnected_stays_separate(self):
        # nodes 0 and 3 share a label but are not adjacent within it
        comp = constrained_components(
            _adj(4, [(0, 1), (1, 2), (2, 3)]), [0, 1, 1, 0]
        )
        assert comp[0] != comp[3]

    def test_uniform_labels_equals_plain_components(self):
        adj = _adj(5, [(0, 1), (1, 2), (3, 4)])
        plain = connected_components(adj)
        constrained = constrained_components(adj, np.zeros(5, dtype=int))
        np.testing.assert_array_equal(plain, constrained)

    def test_labels_none_raises(self):
        with pytest.raises(GraphError):
            constrained_components(_adj(2, [(0, 1)]), None)

    def test_wrong_label_shape_raises(self):
        with pytest.raises(GraphError, match="shape"):
            constrained_components(_adj(3, [(0, 1)]), [0, 1])


class TestCountConstrainedComponents:
    def test_count(self):
        adj = _adj(4, [(0, 1), (1, 2), (2, 3)])
        assert count_constrained_components(adj, [0, 0, 1, 1]) == 2
        assert count_constrained_components(adj, [0, 1, 0, 1]) == 4

    def test_fewer_labels_fewer_components(self):
        # the supernode-selection rule: coarser clusterings that align
        # with adjacency yield fewer components
        adj = _adj(6, [(i, i + 1) for i in range(5)])
        coarse = count_constrained_components(adj, [0, 0, 0, 1, 1, 1])
        fine = count_constrained_components(adj, [0, 1, 0, 1, 0, 1])
        assert coarse < fine

    def test_empty_graph(self):
        assert count_constrained_components(sp.csr_matrix((0, 0)), []) == 0

    def test_labels_none_raises(self):
        with pytest.raises(GraphError):
            count_constrained_components(_adj(2, [(0, 1)]), None)

    @given(graph=graphs_with_labels())
    @settings(max_examples=150, deadline=None)
    def test_equals_max_label_plus_one(self, graph):
        """The count-only path agrees with the labelled components, on
        the full adjacency and on its upper triangle alone."""
        adj, labels = graph
        expected = int(constrained_components(adj, labels).max()) + 1
        assert count_constrained_components(adj, labels) == expected
        assert count_constrained_components(sp.triu(adj, k=1), labels) == expected


class TestIsConnected:
    def test_connected(self):
        assert is_connected(_adj(3, [(0, 1), (1, 2)]))

    def test_disconnected(self):
        assert not is_connected(_adj(3, [(0, 1)]))

    def test_subset(self):
        adj = _adj(4, [(0, 1), (1, 2), (2, 3)])
        assert is_connected(adj, [0, 1])
        assert not is_connected(adj, [0, 2])

    def test_trivial_cases(self):
        adj = _adj(3, [(0, 1)])
        assert is_connected(adj, [])
        assert is_connected(adj, [2])

    def test_negative_id_raises(self):
        # used to wrap around and check nodes 0 and 1
        with pytest.raises(GraphError, match="node ids"):
            is_connected(_adj(3, [(0, 1)]), [-3, -2])

    def test_id_past_end_raises(self):
        # used to raise a bare IndexError
        with pytest.raises(GraphError, match="node ids"):
            is_connected(_adj(3, [(0, 1)]), [0, 3])

    def test_repeated_id_counts_once(self):
        # used to read as two disconnected copies of node 0
        adj = _adj(3, [(0, 1), (1, 2)])
        assert is_connected(adj, [0, 0])
        assert is_connected(adj, [0, 1, 1, 0])
        assert not is_connected(adj, [0, 2, 2])

    def test_accepts_a_set(self):
        adj = _adj(4, [(0, 1), (1, 2), (2, 3)])
        assert is_connected(adj, {1, 2, 3})
        assert not is_connected(adj, {0, 3})


class TestCsgraphMatchesBfs:
    """The public csgraph-backed functions return exactly the ids of the
    paper's FIFO BFS (kept in ``tests/oracles.py``)."""

    @given(graph=graphs_with_labels(), constrained=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_identical_ids(self, graph, constrained):
        adj, labels = graph
        labels = labels if constrained else None
        np.testing.assert_array_equal(
            connected_components(adj, labels), connected_components_bfs(adj, labels)
        )

    def test_empty_graph(self):
        empty = sp.csr_matrix((0, 0))
        np.testing.assert_array_equal(
            connected_components(empty), connected_components_bfs(empty)
        )
        assert constrained_components(empty, np.array([], dtype=int)).size == 0

    def test_isolated_nodes(self):
        # nodes 1, 3 and 5 have no edges; the rest form two pieces
        adj = _adj(7, [(0, 2), (4, 6)])
        np.testing.assert_array_equal(
            connected_components(adj), connected_components_bfs(adj)
        )
        np.testing.assert_array_equal(connected_components(adj), [0, 1, 0, 2, 3, 4, 3])

    def test_constrained_labels(self):
        # a ring whose labels cut it into arcs; the first and last arc
        # share a label and an edge, so they form one component
        n = 12
        adj = _adj(n, [(i, (i + 1) % n) for i in range(n)])
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 0, 1, 1, 0, 0])
        expected = connected_components_bfs(adj, labels)
        np.testing.assert_array_equal(constrained_components(adj, labels), expected)
        np.testing.assert_array_equal(expected, [0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 0, 0])
