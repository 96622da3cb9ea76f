"""SegmentIndex: served answers must equal the result's label array.

The serving layer is only trustworthy if it is a pure view: for every
partitioning scheme, every segment's served region must be *identical*
to ``PartitioningResult.labels`` — including after an incremental
``update()`` republished the epoch. These tests enumerate all schemes
on the small fixture networks and compare exhaustively.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.pipeline.schemes import SCHEMES, run_scheme
from repro.serve import SegmentIndex, SnapshotStore
from repro.serve.snapshot import attach_repartitioner


class TestLookupCorrectness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_segment_matches_result_labels(self, small_grid_graph, scheme):
        result = run_scheme(scheme, small_grid_graph, 4, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        for segment in range(small_grid_graph.n_nodes):
            assert index.region_of(segment) == int(result.labels[segment])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batch_matches_result_labels(self, small_grid_graph, scheme):
        result = run_scheme(scheme, small_grid_graph, 4, seed=1)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        ids = np.arange(small_grid_graph.n_nodes)
        np.testing.assert_array_equal(index.regions_of(ids), result.labels)
        # arbitrary order and repetition are fine too
        shuffled = np.array([5, 0, 5, 17, 3])
        np.testing.assert_array_equal(
            index.regions_of(shuffled), result.labels[shuffled]
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_point_lookup_resolves_to_nearest_midpoint(
        self, small_grid, small_grid_graph, scheme
    ):
        result = run_scheme(scheme, small_grid_graph, 4, seed=0)
        index = SegmentIndex.from_result(
            result, network=small_grid, graph=small_grid_graph
        )
        points = small_grid.segment_midpoints()
        # querying exactly at a midpoint must return that segment's region
        for segment in range(0, small_grid.n_segments, 7):
            found = index.lookup_point(*points[segment])
            assert found["region"] == int(result.labels[found["segment"]])
            assert np.allclose(points[found["segment"]], points[segment])

    def test_out_of_range_lookups_raise(self, small_grid_graph):
        result = run_scheme("AG", small_grid_graph, 3, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        with pytest.raises(ServeError):
            index.region_of(-1)
        with pytest.raises(ServeError):
            index.region_of(small_grid_graph.n_nodes)
        with pytest.raises(ServeError):
            index.regions_of([0, small_grid_graph.n_nodes])

    def test_labels_are_immutable(self, small_grid_graph):
        result = run_scheme("NG", small_grid_graph, 3, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        with pytest.raises(ValueError):
            index.labels[0] = 99
        # and the index is isolated from mutation of the source array
        result.labels[0] = 99
        assert index.region_of(0) != 99 or int(result.labels[0]) == 99


_GRID_MIDPOINTS = grid_network(5, 5, spacing=100.0, two_way=True).segment_midpoints()
_GRID_INDEX = SegmentIndex(
    np.arange(len(_GRID_MIDPOINTS)) % 3, points=_GRID_MIDPOINTS
)


@st.composite
def _query_point(draw):
    """A midpoint exactly (the two directions of a street share it), the
    point halfway between two midpoints, or any point near the grid."""
    i, j = draw(st.tuples(*[st.integers(0, len(_GRID_MIDPOINTS) - 1)] * 2))
    kind = draw(st.sampled_from(["midpoint", "halfway", "anywhere"]))
    if kind == "midpoint":
        return tuple(_GRID_MIDPOINTS[i].tolist())
    if kind == "halfway":
        return tuple(((_GRID_MIDPOINTS[i] + _GRID_MIDPOINTS[j]) / 2).tolist())
    coordinate = st.floats(-100.0, 500.0, allow_nan=False)
    return draw(coordinate), draw(coordinate)


class TestNearestSegments:
    """The bulk point query answers every row as the one-point query
    does, ties included, and a point with no segment at a finite
    distance is an error in both."""

    @given(points=st.lists(_query_point(), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_bulk_rows_equal_one_point_queries(self, points):
        bulk = _GRID_INDEX.nearest_segments(np.array(points))
        assert bulk.shape == (len(points),)
        assert bulk.tolist() == [_GRID_INDEX.nearest_segment(x, y) for x, y in points]

    @pytest.mark.parametrize("x, y", [(1e308, 1e308), (-1e308, 1e308), (1e200, 0.0)])
    def test_far_point_has_no_nearest_segment(self, x, y):
        with pytest.raises(ServeError, match="finite distance"):
            _GRID_INDEX.nearest_segments(np.array([[0.0, 0.0], [x, y]]))
        with pytest.raises(ServeError, match="finite distance"):
            _GRID_INDEX.lookup_point(x, y)

    def test_rejects_wrong_shapes_and_missing_geometry(self):
        with pytest.raises(ServeError, match="shape"):
            _GRID_INDEX.nearest_segments(np.zeros((3, 3)))
        with pytest.raises(ServeError, match="geometry"):
            SegmentIndex([0, 1]).nearest_segments(np.zeros((1, 2)))

    def test_id_past_int64_is_out_of_range(self):
        with pytest.raises(ServeError, match="outside"):
            _GRID_INDEX.regions_of([0, 10**20])


class TestRegionQueries:
    def test_boundary_segments_have_foreign_neighbours(self, small_grid_graph):
        result = run_scheme("ASG", small_grid_graph, 4, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        adj = small_grid_graph.adjacency.tocsr()
        labels = result.labels
        mask = index.boundary_mask()
        for segment in range(small_grid_graph.n_nodes):
            neighbours = adj.indices[adj.indptr[segment] : adj.indptr[segment + 1]]
            has_foreign = bool(
                (labels[neighbours] != labels[segment]).any()
            )
            assert bool(mask[segment]) == has_foreign

    def test_region_sizes_match_bincount(self, small_grid_graph):
        result = run_scheme("JG", small_grid_graph, 4, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        np.testing.assert_array_equal(
            index.region_sizes(), np.bincount(result.labels, minlength=index.k)
        )

    def test_region_info_fields(self, small_grid, small_grid_graph):
        result = run_scheme("ASG", small_grid_graph, 3, seed=0)
        index = SegmentIndex.from_result(
            result, network=small_grid, graph=small_grid_graph
        )
        info = index.region_info(0)
        assert info["region"] == 0
        assert info["n_segments"] == int((result.labels == 0).sum())
        assert {"x_min", "y_min", "x_max", "y_max"} <= set(info["bbox"])
        assert info["mean_density"] == pytest.approx(
            float(np.asarray(small_grid_graph.features)[result.labels == 0].mean())
        )

    def test_quality_matches_result_evaluate(self, small_grid_graph):
        result = run_scheme("ASG", small_grid_graph, 4, seed=0)
        index = SegmentIndex.from_result(result, graph=small_grid_graph)
        quality = index.quality()
        expected = result.evaluate(small_grid_graph)
        for name in ("inter", "intra", "gdbi", "ans"):
            assert quality[name] == pytest.approx(expected[name])


class TestDerivedEpochs:
    """``relabel`` shares the geometry and answers like a fresh index."""

    @staticmethod
    def _base(network, graph):
        return SegmentIndex(
            np.zeros(graph.n_nodes, dtype=int),
            points=network.segment_midpoints(),
            adjacency=graph.adjacency,
            features=graph.features,
        )

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_answers_equal_a_fresh_index(self, small_grid, small_grid_graph, seed, k):
        rng = np.random.default_rng(seed)
        n = small_grid_graph.n_nodes
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        densities = rng.gamma(2.0, 0.02, size=n)
        points = small_grid.segment_midpoints()
        derived = self._base(small_grid, small_grid_graph).relabel(labels, densities)
        fresh = SegmentIndex(
            labels, points=points, adjacency=small_grid_graph.adjacency, features=densities
        )
        assert (derived.n_segments, derived.k) == (fresh.n_segments, fresh.k)
        ids = rng.integers(0, n, 40)
        np.testing.assert_array_equal(derived.regions_of(ids), fresh.regions_of(ids))
        for x, y in rng.uniform(points.min(axis=0), points.max(axis=0), (10, 2)):
            assert derived.lookup_point(x, y) == fresh.lookup_point(x, y)
        np.testing.assert_array_equal(derived.boundary_mask(), fresh.boundary_mask())
        np.testing.assert_array_equal(derived.region_sizes(), fresh.region_sizes())
        for region in range(k):
            assert derived.region_info(region) == fresh.region_info(region)
        assert derived.quality() == fresh.quality()

    def test_shares_geometry_and_stays_frozen(self, small_grid, small_grid_graph):
        base = self._base(small_grid, small_grid_graph)
        labels = np.arange(small_grid_graph.n_nodes) % 3
        densities = np.ones(small_grid_graph.n_nodes)
        derived = base.relabel(labels, densities)
        assert derived._kdtree is base._kdtree
        assert derived.points is base.points
        assert derived._adjacency is base._adjacency
        for array in (derived.labels, derived.region_sizes(), derived.boundary_mask(),
                      derived._features, derived.points):
            assert not array.flags.writeable
        # the new epoch owns copies of its inputs
        labels[0] = 2
        densities[0] = 9.0
        assert derived.region_of(0) == 0
        assert derived._features[0] == 1.0
        # and the source epoch is untouched
        assert base.k == 1 and int(base.labels.max()) == 0

    def test_without_features_has_no_quality(self, small_grid, small_grid_graph):
        derived = self._base(small_grid, small_grid_graph).relabel(
            np.zeros(small_grid_graph.n_nodes, dtype=int)
        )
        with pytest.raises(ServeError, match="quality"):
            derived.quality()

    @pytest.mark.parametrize(
        "labels, match",
        [
            (np.array([], dtype=int), "non-empty"),
            (np.zeros((2, 40), dtype=int), "non-empty vector"),
            (np.zeros(79, dtype=int), "80 entries"),
            (np.full(80, -1), "non-negative"),
        ],
        ids=["empty", "2-d", "wrong-length", "negative"],
    )
    def test_rejects_bad_labels(self, small_grid, small_grid_graph, labels, match):
        base = self._base(small_grid, small_grid_graph)
        with pytest.raises(ServeError, match=match):
            base.relabel(labels)

    def test_rejects_wrong_shaped_features(self, small_grid, small_grid_graph):
        base = self._base(small_grid, small_grid_graph)
        with pytest.raises(ServeError, match="features"):
            base.relabel(np.zeros(small_grid_graph.n_nodes, dtype=int), np.ones(3))


class TestIncrementalRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_served_labels_track_update(self, small_grid_graph, scheme):
        """After bootstrap + update, the published epoch equals the
        repartitioner's current labels — the full round-trip the
        tentpole promises."""
        store = SnapshotStore()
        repartitioner = IncrementalRepartitioner(
            small_grid_graph, k=4, scheme=scheme, seed=0
        )
        attach_repartitioner(store, repartitioner)
        densities = np.asarray(small_grid_graph.features, dtype=float)

        repartitioner.bootstrap(densities)
        snap1 = store.current()
        np.testing.assert_array_equal(snap1.index.labels, repartitioner.labels)

        # a strong localized density shift forces at least staleness checks
        shifted = densities.copy()
        shifted[: len(shifted) // 3] *= 10.0
        report = repartitioner.update(shifted)
        snap2 = store.current()
        assert snap2.epoch == snap1.epoch + 1
        np.testing.assert_array_equal(snap2.index.labels, report.labels)
        np.testing.assert_array_equal(snap2.index.labels, repartitioner.labels)
        for segment in range(small_grid_graph.n_nodes):
            assert snap2.index.region_of(segment) == int(report.labels[segment])
        store.close()

    def test_unsubscribe_stops_publishing(self, small_grid_graph):
        store = SnapshotStore()
        repartitioner = IncrementalRepartitioner(
            small_grid_graph, k=3, scheme="AG", seed=0
        )
        unsubscribe = attach_repartitioner(store, repartitioner)
        densities = np.asarray(small_grid_graph.features, dtype=float)
        repartitioner.bootstrap(densities)
        assert store.last_epoch == 1
        unsubscribe()
        repartitioner.update(densities * 100.0)
        assert store.last_epoch == 1  # no new epoch after unsubscribe
        store.close()

    def test_no_kd_tree_is_built_after_bootstrap(
        self, small_grid, small_grid_graph, monkeypatch
    ):
        import scipy.spatial

        built = []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        store = SnapshotStore()
        repartitioner = IncrementalRepartitioner(small_grid_graph, k=4, seed=0)
        attach_repartitioner(store, repartitioner, network=small_grid)
        densities = np.asarray(small_grid_graph.features, dtype=float)
        repartitioner.bootstrap(densities)
        assert len(built) == 1
        tree = store.current().index._kdtree
        for factor in (10.0, 0.1, 3.0, 3.0):
            densities = densities.copy()
            densities[: len(densities) // 3] *= factor
            repartitioner.update(densities)
        assert store.last_epoch == 5
        assert len(built) == 1
        assert store.current().index._kdtree is tree
        store.close()
