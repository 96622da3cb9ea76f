"""Tests for superlink establishment and weighting (Eq. 3)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.supergraph.superlink import feature_variance, superlink_weights


def _two_supernode_setup(f0=0.1, f1=0.9):
    """Path 0-1-2-3 split into supernodes {0,1} and {2,3}."""
    g = Graph(4, edges=[(0, 1), (1, 2), (2, 3)], features=[f0, f0, f1, f1])
    return g, np.array([0, 0, 1, 1]), np.array([f0, f1])


class TestFeatureVariance:
    def test_uniform_zero(self):
        assert feature_variance([1.0, 1.0]) == 0.0

    def test_value(self):
        assert feature_variance([0.0, 2.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            feature_variance([])


class TestSuperlinkWeights:
    def test_link_exists_where_road_links_cross(self):
        g, member_of, feats = _two_supernode_setup()
        w = superlink_weights(g.adjacency, member_of, feats)
        assert w[0, 1] > 0
        assert w[0, 0] == 0.0  # no self links

    def test_symmetric(self):
        g, member_of, feats = _two_supernode_setup()
        w = superlink_weights(g.adjacency, member_of, feats)
        assert w[0, 1] == w[1, 0]

    def test_weights_in_unit_interval(self):
        g, member_of, feats = _two_supernode_setup()
        w = superlink_weights(g.adjacency, member_of, feats)
        assert 0.0 < w[0, 1] <= 1.0

    def test_closer_features_higher_weight(self):
        # three supernodes on a path share one variance; the closer pair
        # gets the heavier link
        g = Graph(3, edges=[(0, 1), (1, 2)])
        w = superlink_weights(g.adjacency, np.arange(3), [0.0, 0.2, 1.0])
        assert w[0, 1] > w[1, 2]

    def test_supernode_mode_reduces_to_single_gaussian(self):
        """Paper-literal Eq. 3: the RMS collapses to the Gaussian."""
        g, member_of, feats = _two_supernode_setup(0.2, 0.8)
        sigma2 = feature_variance(feats)
        expected = np.exp(-((0.2 - 0.8) ** 2) / (2 * sigma2))
        w = superlink_weights(g.adjacency, member_of, feats, mode="supernode")
        assert w[0, 1] == pytest.approx(expected)

    def test_node_mode_uses_node_features(self):
        g = Graph(
            4,
            edges=[(0, 1), (1, 2), (2, 3)],
            features=[0.1, 0.5, 0.5, 0.9],  # the crossing link joins equals
        )
        w = superlink_weights(
            g.adjacency, [0, 0, 1, 1], [0.3, 0.7], node_features=g.features, mode="node"
        )
        # crossing link joins nodes with identical features -> weight 1
        assert w[0, 1] == pytest.approx(1.0)

    def test_node_mode_requires_features(self):
        g, member_of, feats = _two_supernode_setup()
        with pytest.raises(GraphError, match="node_features"):
            superlink_weights(g.adjacency, member_of, feats, mode="node")

    def test_invalid_mode(self):
        g, member_of, feats = _two_supernode_setup()
        with pytest.raises(GraphError):
            superlink_weights(g.adjacency, member_of, feats, mode="bogus")

    def test_zero_variance_unit_weights(self):
        g = Graph(2, edges=[(0, 1)], features=[0.5, 0.5])
        w = superlink_weights(g.adjacency, [0, 1], [0.5, 0.5])
        assert w[0, 1] == 1.0

    def test_no_cross_links_empty_matrix(self):
        g = Graph(4, edges=[(0, 1), (2, 3)])
        w = superlink_weights(g.adjacency, [0, 0, 1, 1], [0.1, 0.9])
        assert w.nnz == 0

    def test_shape(self):
        g, member_of, feats = _two_supernode_setup()
        w = superlink_weights(g.adjacency, member_of, feats)
        assert w.shape == (2, 2)

    def test_member_of_shape_checked(self):
        g, __, feats = _two_supernode_setup()
        with pytest.raises(GraphError, match="member_of"):
            superlink_weights(g.adjacency, [0, 1], feats)
