"""Tests for supernode creation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import create_supernodes_loop, graphs_with_labels, membership_vector_loop

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.supergraph.supernode import (
    Supernode,
    create_supernodes,
    membership_vector,
)


def _path_adj(n):
    return Graph(n, edges=[(i, i + 1) for i in range(n - 1)]).adjacency


class TestSupernode:
    def test_size(self):
        sn = Supernode(0, [1, 2, 3], 0.5)
        assert sn.size == 3

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            Supernode(0, [], 0.0)

    def test_member_mean(self):
        sn = Supernode(0, [0, 2], 0.0)
        assert sn.member_mean([1.0, 9.0, 3.0]) == pytest.approx(2.0)


class TestCreateSupernodes:
    def test_aligned_clusters_one_supernode_each(self):
        adj = _path_adj(6)
        labels = [0, 0, 0, 1, 1, 1]
        sns = create_supernodes(adj, labels, cluster_means=[0.1, 0.9])
        assert len(sns) == 2
        assert sns[0].feature == 0.1
        assert sns[1].feature == 0.9

    def test_disconnected_cluster_splits(self):
        adj = _path_adj(5)
        labels = [0, 1, 0, 1, 0]  # cluster 0 is three isolated nodes
        sns = create_supernodes(adj, labels, cluster_means=[0.1, 0.9])
        assert len(sns) == 5

    def test_cluster_mean_assigned_by_label(self):
        adj = _path_adj(4)
        labels = [0, 0, 1, 1]
        sns = create_supernodes(adj, labels, cluster_means=[0.25, 0.75])
        features = sorted(sn.feature for sn in sns)
        assert features == [0.25, 0.75]

    def test_member_mean_fallback(self):
        adj = _path_adj(4)
        labels = [0, 0, 1, 1]
        sns = create_supernodes(adj, labels, features=[1.0, 3.0, 5.0, 7.0])
        features = sorted(sn.feature for sn in sns)
        assert features == [2.0, 6.0]

    def test_cover_is_partition(self):
        adj = _path_adj(7)
        labels = [0, 1, 1, 0, 2, 2, 2]
        sns = create_supernodes(adj, labels, cluster_means=[0.1, 0.5, 0.9])
        member_of = membership_vector(sns, 7)
        assert (member_of >= 0).all()

    def test_requires_means_or_features(self):
        with pytest.raises(GraphError):
            create_supernodes(_path_adj(3), [0, 0, 0])

    def test_cluster_index_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            create_supernodes(_path_adj(3), [0, 0, 5], cluster_means=[0.1])


class TestCreateSupernodesMatchesLoop:
    @staticmethod
    def _assert_same(fast, slow):
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.id == b.id
            np.testing.assert_array_equal(a.members, b.members)
            assert a.feature == b.feature

    @given(graph=graphs_with_labels(), means_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_cluster_means(self, graph, means_seed):
        adj, labels = graph
        means = np.random.default_rng(means_seed).random(labels.max() + 1)
        self._assert_same(
            create_supernodes(adj, labels, cluster_means=means),
            create_supernodes_loop(adj, labels, cluster_means=means),
        )

    @given(graph=graphs_with_labels(), feature_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_member_means(self, graph, feature_seed):
        adj, labels = graph
        feats = np.random.default_rng(feature_seed).random(labels.size)
        self._assert_same(
            create_supernodes(adj, labels, features=feats),
            create_supernodes_loop(adj, labels, features=feats),
        )


class TestMembershipVector:
    @given(graph=graphs_with_labels())
    @settings(max_examples=100, deadline=None)
    def test_matches_loop(self, graph):
        adj, labels = graph
        sns = create_supernodes(adj, labels, features=np.zeros(labels.size))
        np.testing.assert_array_equal(
            membership_vector(sns, labels.size), membership_vector_loop(sns, labels.size)
        )

    def test_negative_id_rejected(self):
        sns = [Supernode(0, [0, -1], 0.1), Supernode(1, [1], 0.9)]
        with pytest.raises(GraphError, match="out of range"):
            membership_vector(sns, 3)

    def test_id_past_end_rejected(self):
        sns = [Supernode(0, [0, 1], 0.1), Supernode(1, [2, 3], 0.9)]
        with pytest.raises(GraphError, match="out of range"):
            membership_vector(sns, 3)

    def test_duplicate_within_supernode_rejected(self):
        sns = [Supernode(0, [0, 1, 1], 0.1), Supernode(1, [2], 0.9)]
        with pytest.raises(GraphError, match="lists node 1 twice"):
            membership_vector(sns, 3)

    def test_empty_cover(self):
        assert membership_vector([], 0).size == 0
        with pytest.raises(GraphError, match="2 nodes not covered"):
            membership_vector([], 2)

    def test_basic(self):
        sns = [Supernode(0, [0, 1], 0.1), Supernode(1, [2], 0.9)]
        np.testing.assert_array_equal(membership_vector(sns, 3), [0, 0, 1])

    def test_overlap_rejected(self):
        sns = [Supernode(0, [0, 1], 0.1), Supernode(1, [1, 2], 0.9)]
        with pytest.raises(GraphError, match="overlap"):
            membership_vector(sns, 3)

    def test_uncovered_rejected(self):
        sns = [Supernode(0, [0], 0.1)]
        with pytest.raises(GraphError, match="not covered"):
            membership_vector(sns, 2)
