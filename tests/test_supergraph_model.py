"""Tests for the Supergraph container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.supergraph.model import Supergraph


def _simple_supergraph():
    adj = sp.csr_matrix(
        np.array([[0, 0.8, 0], [0.8, 0, 0.6], [0, 0.6, 0]])
    )
    return Supergraph([0, 0, 1, 2, 2], [0.1, 0.5, 0.9], adj)


class TestSupergraph:
    def test_sizes(self):
        sg = _simple_supergraph()
        assert sg.n_supernodes == 3
        assert sg.n_superlinks == 2
        assert sg.n_road_nodes == 5

    def test_features_and_sizes_vectors(self):
        sg = _simple_supergraph()
        np.testing.assert_allclose(sg.features(), [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(sg.sizes(), [2, 1, 2])

    def test_member_of(self):
        sg = _simple_supergraph()
        np.testing.assert_array_equal(sg.member_of, [0, 0, 1, 2, 2])

    def test_member_of_readonly(self):
        sg = _simple_supergraph()
        with pytest.raises(ValueError):
            sg.member_of[0] = 5

    def test_reduction_ratio(self):
        assert _simple_supergraph().reduction_ratio() == pytest.approx(3 / 5)

    def test_expand_partition(self):
        sg = _simple_supergraph()
        node_labels = sg.expand_partition([0, 0, 1])
        np.testing.assert_array_equal(node_labels, [0, 0, 0, 1, 1])

    def test_expand_wrong_shape(self):
        with pytest.raises(GraphError):
            _simple_supergraph().expand_partition([0, 1])

    def test_as_graph(self):
        g = _simple_supergraph().as_graph()
        assert g.n_nodes == 3
        assert g.edge_weight(0, 1) == pytest.approx(0.8)
        np.testing.assert_allclose(g.features, [0.1, 0.5, 0.9])

    def test_nondense_ids_rejected(self):
        with pytest.raises(GraphError, match="dense"):
            Supergraph([1], [0.1], sp.csr_matrix((1, 1)))

    def test_adjacency_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            Supergraph([0], [0.1], sp.csr_matrix((2, 2)))

    def test_incomplete_cover_rejected(self):
        # supernode 1 has no members
        with pytest.raises(GraphError, match="no members"):
            Supergraph([0, 0], [0.1, 0.5], sp.csr_matrix((2, 2)))

    def test_uncovered_node_rejected(self):
        with pytest.raises(GraphError, match="dense"):
            Supergraph([0, -1], [0.1], sp.csr_matrix((1, 1)))

    def test_supernodes_built_from_the_arrays(self):
        sns = _simple_supergraph().supernodes
        assert [sn.id for sn in sns] == [0, 1, 2]
        assert [sn.members.tolist() for sn in sns] == [[0, 1], [2], [3, 4]]
        assert [sn.feature for sn in sns] == [0.1, 0.5, 0.9]

    def test_repr(self):
        assert "n_supernodes=3" in repr(_simple_supergraph())
