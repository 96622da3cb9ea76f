"""Tests for supernode stability (Eq. 2) and Algorithm 2."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.supergraph.stability import (
    stability,
    stability_check,
    supernode_stability,
)
from repro.supergraph.supernode import Supernode


class TestStabilityMeasure:
    def test_uniform_features_give_one(self):
        assert stability([0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_single_node_is_one(self):
        assert stability([3.0]) == pytest.approx(1.0)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for __ in range(20):
            feats = rng.random(rng.integers(1, 30)) * 10
            assert 0.0 <= stability(feats) <= 1.0

    def test_more_spread_less_stable(self):
        tight = stability([1.0, 1.01, 0.99])
        loose = stability([1.0, 2.0, 0.1])
        assert tight > loose

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            stability([])

    def test_supernode_wrapper(self):
        sn = Supernode(0, [0, 2], 0.0)
        feats = [1.0, 99.0, 1.0]
        assert supernode_stability(sn, feats) == pytest.approx(1.0)


def _chain_graph(features):
    n = len(features)
    return Graph(n, edges=[(i, i + 1) for i in range(n - 1)], features=features)


class TestStabilityCheck:
    def test_threshold_zero_is_noop(self):
        feats = [0.0, 10.0, 0.0]
        g = _chain_graph(feats)
        member_of, features = stability_check([0, 0, 0], [3.33], feats, 0.0, adjacency=g.adjacency)
        assert member_of.tolist() == [0, 0, 0]
        assert features.tolist() == [3.33]

    def test_stable_supernode_kept_with_feature(self):
        feats = [1.0, 1.0, 1.0]
        g = _chain_graph(feats)
        __, features = stability_check([0, 0, 0], [42.0], feats, 0.99, adjacency=g.adjacency)
        assert features.tolist() == [42.0]  # retained, not recomputed

    def test_unstable_supernode_split(self):
        feats = [0.0, 0.0, 10.0, 10.0]
        g = _chain_graph(feats)
        __, features = stability_check(np.zeros(4, dtype=int), [5.0], feats, 0.9, adjacency=g.adjacency)
        assert sorted(features) == [0.0, 10.0]  # member means after split

    def test_split_halves_reconnected(self):
        """Splitting by value can disconnect members; reconnect=True
        separates the pieces."""
        feats = [0.0, 10.0, 0.0]  # low nodes 0, 2 are not adjacent
        g = _chain_graph(feats)
        __, features = stability_check([0, 0, 0], [3.33], feats, 0.9, adjacency=g.adjacency)
        assert features.size == 3

    def test_no_reconnect_keeps_value_halves(self):
        feats = [0.0, 10.0, 0.0]
        member_of, features = stability_check([0, 0, 0], [3.33], feats, 0.9, reconnect=False)
        assert features.size == 2
        assert member_of[0] == member_of[2] != member_of[1]

    def test_result_is_partition(self):
        rng = np.random.default_rng(1)
        feats = rng.random(20)
        g = _chain_graph(list(feats))
        member_of, features = stability_check(
            np.repeat([0, 1], 10), [0.5, 0.5], feats, 0.95, adjacency=g.adjacency
        )
        # every node in one supernode, every supernode id used
        np.testing.assert_array_equal(np.unique(member_of), np.arange(features.size))

    def test_threshold_one_forces_constant_groups(self):
        feats = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        g = _chain_graph(feats)
        member_of, __ = stability_check(np.zeros(5, dtype=int), [0.6], feats, 1.0, adjacency=g.adjacency)
        for sid in np.unique(member_of):
            members = feats[member_of == sid]
            assert members.min() == members.max()

    def test_reconnect_requires_adjacency(self):
        with pytest.raises(GraphError, match="adjacency"):
            stability_check([0, 0], [0.5], [0.0, 1.0], 0.9)

    def test_invalid_threshold(self):
        with pytest.raises(GraphError):
            stability_check([0], [0.5], [0.0], 1.5, reconnect=False)

    def test_monotone_supernode_count_in_threshold(self):
        rng = np.random.default_rng(2)
        feats = rng.random(30)
        g = _chain_graph(list(feats))
        counts = [
            stability_check(
                np.zeros(30, dtype=int), [float(feats.mean())], feats, eta, adjacency=g.adjacency
            )[1].size
            for eta in (0.0, 0.7, 0.9, 0.99)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_stable_ids_follow_the_lifo_stack(self):
        """With every supernode stable, the stack pops the last one first."""
        feats = [1.0, 1.0, 2.0, 2.0, 3.0]
        g = _chain_graph(feats)
        member_of, features = stability_check(
            [0, 0, 1, 1, 2], [1.0, 2.0, 3.0], feats, 0.5, adjacency=g.adjacency
        )
        assert member_of.tolist() == [2, 2, 1, 1, 0]
        assert features.tolist() == [3.0, 2.0, 1.0]
