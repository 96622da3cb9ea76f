"""The ``segment_midpoints`` import path and the ``spatial_shards`` labeller.

``repro.shard.spatial.segment_midpoints`` stays importable for callers
of its old path; ``spatial_shards`` (in ``tests/oracles.py``) labels
segments into balanced spatial cells for the serving tests and bench.
"""

import numpy as np
import pytest

from oracles import spatial_shards
from repro.exceptions import GraphError
from repro.network.generators import urban_network
from repro.shard.spatial import segment_midpoints


class TestSpatialShards:
    @pytest.mark.parametrize("n_cells", [1, 2, 3, 4, 7, 8])
    def test_balanced_partition(self, n_cells):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, size=(500, 2))
        labels = spatial_shards(pts, n_cells)
        assert labels.shape == (500,)
        counts = np.bincount(labels, minlength=n_cells)
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 1  # balanced to within one

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(200, 2))
        assert np.array_equal(spatial_shards(pts, 5), spatial_shards(pts, 5))

    def test_cells_are_spatially_compact(self):
        # a 2-way split of a square must be a half-plane cut: every
        # shard-0 point lies on one side of every shard-1 point along
        # the split axis
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(400, 2))
        labels = spatial_shards(pts, 2)
        spans = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spans))
        assert pts[labels == 0, axis].max() <= pts[labels == 1, axis].min()

    def test_one_dimensional_points(self):
        labels = spatial_shards(np.arange(10.0), 2)
        assert np.array_equal(labels, [0] * 5 + [1] * 5)

    def test_invalid_shard_counts(self):
        pts = np.zeros((5, 2))
        with pytest.raises(GraphError):
            spatial_shards(pts, 0)
        with pytest.raises(GraphError):
            spatial_shards(pts, 6)


class TestSegmentMidpoints:
    def test_shapes_and_values(self):
        net = urban_network(n_rows=5, n_cols=5, seed=2)
        pts = segment_midpoints(net)
        assert pts.shape == (net.n_segments, 2)
        mid = net.segment_midpoint(0)
        assert pts[0, 0] == pytest.approx(mid.x)
        assert pts[0, 1] == pytest.approx(mid.y)

