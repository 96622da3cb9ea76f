"""Tests for partition-connectivity matrix, recursive bipartitioning
and greedy pruning (Algorithm 3, lines 12-24)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import partition_connectivity_matrix_loop, repair_connectivity_loop
from strategies import graphs_with_labels

from repro.core.refine import (
    greedy_prune,
    partition_connectivity_matrix,
    recursive_bipartition,
    repair_connectivity,
)
from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph


class TestPartitionConnectivityMatrix:
    def test_rms_of_cross_weights(self):
        g = Graph(4, edges=[(0, 1, 1.0), (1, 2, 0.6), (2, 3, 1.0), (0, 2, 0.8)])
        labels = np.array([0, 0, 1, 1])
        meta = partition_connectivity_matrix(g.adjacency, labels)
        # cross links: (1,2) w=0.6 and (0,2) w=0.8 -> RMS
        expected = np.sqrt((0.6**2 + 0.8**2) / 2)
        assert meta[0, 1] == pytest.approx(expected)
        assert meta[1, 0] == pytest.approx(expected)

    def test_zero_diagonal(self):
        g = Graph(4, edges=[(0, 1), (2, 3), (1, 2)])
        meta = partition_connectivity_matrix(g.adjacency, [0, 0, 1, 1])
        assert meta[0, 0] == 0.0

    def test_non_adjacent_partitions_zero(self):
        g = Graph(6, edges=[(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)])
        meta = partition_connectivity_matrix(g.adjacency, [0, 0, 1, 1, 2, 2])
        assert meta[0, 2] == 0.0
        assert meta[0, 1] > 0 and meta[1, 2] > 0

    def test_shape_mismatch_raises(self):
        g = Graph(3, edges=[(0, 1)])
        with pytest.raises(PartitioningError):
            partition_connectivity_matrix(g.adjacency, [0, 1])

    @given(graph=graphs_with_labels(max_labels=6))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_loop(self, graph):
        adj, labels = graph
        np.testing.assert_array_equal(
            partition_connectivity_matrix(adj, labels),
            partition_connectivity_matrix_loop(adj, labels),
        )


class TestRecursiveBipartition:
    def test_two_groups(self):
        # meta chain with a weak middle link
        meta = np.array(
            [
                [0.0, 0.9, 0.0, 0.0],
                [0.9, 0.0, 0.1, 0.0],
                [0.0, 0.1, 0.0, 0.9],
                [0.0, 0.0, 0.9, 0.0],
            ]
        )
        groups = recursive_bipartition(meta, 2, seed=0)
        assert groups[0] == groups[1]
        assert groups[2] == groups[3]
        assert groups[0] != groups[2]

    def test_k_one_everything_together(self):
        meta = np.eye(3) * 0
        groups = recursive_bipartition(meta, 1, seed=0)
        assert groups.max() == 0

    def test_k_equals_k_prime(self):
        meta = np.array([[0.0, 0.5], [0.5, 0.0]])
        groups = recursive_bipartition(meta, 2, seed=0)
        assert sorted(groups.tolist()) == [0, 1]

    def test_exactly_k_groups(self):
        rng = np.random.default_rng(0)
        n = 12
        meta = rng.random((n, n))
        meta = (meta + meta.T) / 2
        np.fill_diagonal(meta, 0.0)
        for k in (2, 3, 5, 7):
            groups = recursive_bipartition(meta, k, seed=0)
            assert len(set(groups.tolist())) == k

    def test_invalid_k(self):
        meta = np.zeros((3, 3))
        with pytest.raises(PartitioningError):
            recursive_bipartition(meta, 0)
        with pytest.raises(PartitioningError):
            recursive_bipartition(meta, 4)

    def test_custom_bipartition_fn(self):
        meta = np.ones((4, 4)) - np.eye(4)
        calls = []

        def split_first(sub, rng):
            calls.append(sub.shape[0])
            labels = np.zeros(sub.shape[0], dtype=int)
            labels[0] = 1
            return labels

        groups = recursive_bipartition(meta, 3, seed=0, bipartition_fn=split_first)
        assert len(set(groups.tolist())) == 3
        assert calls  # custom function was used


class TestGreedyPrune:
    def test_reduces_to_k(self, two_cliques):
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        pruned = greedy_prune(two_cliques.adjacency, labels, 2)
        assert len(set(pruned.tolist())) == 2

    def test_merges_within_cliques_first(self, two_cliques):
        """Greedy pruning should reassemble the cliques, not merge
        across the bridge."""
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        pruned = greedy_prune(two_cliques.adjacency, labels, 2)
        assert len(set(pruned[:4].tolist())) == 1
        assert len(set(pruned[4:].tolist())) == 1

    def test_noop_when_already_k(self, two_cliques):
        labels = np.array([0] * 4 + [1] * 4)
        pruned = greedy_prune(two_cliques.adjacency, labels, 2)
        np.testing.assert_array_equal(pruned, labels)

    def test_invalid_k(self, two_cliques):
        labels = np.array([0] * 4 + [1] * 4)
        with pytest.raises(PartitioningError):
            greedy_prune(two_cliques.adjacency, labels, 3)


@st.composite
def integer_weighted_graphs(draw, max_nodes: int = 30):
    """A symmetric CSR adjacency with small integer weights, so that
    component pairs tie on weight, plus labels and a target k."""
    n = draw(st.integers(2, max_nodes))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = sp.csr_matrix((weights + weights, (rows, cols)), shape=(n, n), dtype=float)
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return adj, labels, draw(st.integers(2, n))


class TestRepairConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(integer_weighted_graphs())
    def test_matches_loop(self, case):
        adj, labels, k = case
        assert np.array_equal(
            repair_connectivity(adj, labels, k), repair_connectivity_loop(adj, labels, k)
        )

    def test_ties_go_to_the_larger_neighbour(self):
        # node 0 is a singleton joined to singletons 1 and 2 by equal
        # weights: it merges into component 2, the larger id
        g = Graph(3, edges=[(0, 1, 1.0), (0, 2, 1.0)])
        out = repair_connectivity(g.adjacency, np.array([0, 1, 2]), 2)
        assert out.tolist() == [1, 0, 1]

    def test_more_graph_components_than_k_still_gives_k(self):
        g = Graph(4, edges=[(0, 1, 1.0)])
        out = repair_connectivity(g.adjacency, np.array([0, 1, 2, 3]), 2)
        assert int(out.max()) + 1 == 2
        assert np.array_equal(
            out, repair_connectivity_loop(g.adjacency, np.array([0, 1, 2, 3]), 2)
        )
