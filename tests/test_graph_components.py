"""Tests for repro.graph.components."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graphs_with_labels

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import (
    _components_csgraph,
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


class TestCsgraphMatchesBfs:
    """The scipy route used above the size cutoff returns exactly the
    FIFO BFS ids (small graphs always take the BFS route)."""

    @given(graph=graphs_with_labels(), constrained=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_identical_ids(self, graph, constrained):
        adj, labels = graph
        labels = labels if constrained else None
        np.testing.assert_array_equal(
            _components_csgraph(adj, labels), connected_components(adj, labels)
        )
