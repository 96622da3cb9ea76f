"""Tests for incremental/distributed repartitioning."""

import numpy as np
import pytest

from repro.exceptions import PartitioningError
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.traffic.profiles import hotspot_profile


@pytest.fixture(scope="module")
def setup():
    network = grid_network(6, 6, two_way=True)
    graph = build_road_graph(network)
    base = hotspot_profile(network, n_hotspots=2, noise=0.0, seed=0)
    return network, graph, base


class TestBootstrap:
    def test_produces_k_partitions(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        labels = inc.bootstrap(base)
        assert int(labels.max()) + 1 == 4
        assert labels.shape == (graph.n_nodes,)

    def test_labels_property_copies(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, seed=0)
        inc.bootstrap(base)
        snapshot = inc.labels
        snapshot[0] = 99
        assert inc.labels[0] != 99

    def test_update_before_bootstrap_rejected(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, seed=0)
        with pytest.raises(PartitioningError, match="bootstrap"):
            inc.update(base)


class TestUpdate:
    def test_unchanged_densities_refresh_nothing(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        before = inc.bootstrap(base)
        report = inc.update(base)
        assert report.refreshed == []
        np.testing.assert_array_equal(report.labels, before)

    def test_uniform_scaling_below_threshold_keeps_regions(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.25, seed=0)
        inc.bootstrap(base)
        report = inc.update(base * 1.1)  # +10% everywhere, under 25%
        assert report.refreshed == []

    def test_localised_change_refreshes_some_regions(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.25, seed=0)
        labels = inc.bootstrap(base)
        # quadruple congestion inside one region only
        changed = base.copy()
        target = 0
        changed[labels == target] *= 4.0
        report = inc.update(changed)
        assert target in report.refreshed
        assert len(report.kept) >= 1

    def test_kept_regions_preserve_membership(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.25, seed=0)
        labels = inc.bootstrap(base)
        changed = base.copy()
        changed[labels == 0] *= 4.0
        report = inc.update(changed)
        # every kept region maps to exactly one new region with the
        # same member set
        for old in report.kept:
            members = np.flatnonzero(labels == old)
            new_ids = set(report.labels[members].tolist())
            assert len(new_ids) == 1
            new_id = new_ids.pop()
            np.testing.assert_array_equal(
                np.flatnonzero(report.labels == new_id), members
            )

    def test_labels_stay_dense(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.1, seed=0)
        labels = inc.bootstrap(base)
        changed = base.copy()
        changed[labels == 1] *= 3.0
        report = inc.update(changed)
        k_new = int(report.labels.max()) + 1
        assert set(report.labels.tolist()) == set(range(k_new))

    def test_density_shape_checked(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=3, seed=0)
        inc.bootstrap(base)
        with pytest.raises(PartitioningError):
            inc.update(base[:-1])

    def test_invalid_params(self, setup):
        __, graph, __base = setup
        with pytest.raises(PartitioningError):
            IncrementalRepartitioner(graph, k=0)
        with pytest.raises(PartitioningError):
            IncrementalRepartitioner(graph, k=3, staleness_threshold=-1.0)

    def test_report_carries_wall_time(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        inc.bootstrap(base)
        report = inc.update(base * 10.0)  # everything stale
        assert report.duration_s > 0
        quiet = inc.update(base * 10.0)  # nothing stale
        assert quiet.duration_s > 0
        assert quiet.refreshed == []

    def test_no_refresh_means_no_relabelling(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        inc.bootstrap(base)
        report = inc.update(base)
        assert report.n_relabelled == 0

    def test_split_region_counts_relabelled_segments(self, setup):
        __, graph, base = setup
        # k=5/seed=0 bootstraps an uneven partitioning whose largest
        # region splits locally when its congestion quadruples
        inc = IncrementalRepartitioner(graph, k=5, staleness_threshold=0.25, seed=0)
        labels = inc.bootstrap(base)
        sizes = np.bincount(labels)
        big = int(sizes.argmax())
        changed = base.copy()
        changed[labels == big] *= 4.0
        report = inc.update(changed)
        assert big in report.refreshed
        assert report.n_relabelled >= int(sizes[big])
        assert report.n_relabelled <= int(sizes[report.refreshed].sum())

    def test_unsplit_refresh_counts_zero_relabelled(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.25, seed=0)
        labels = inc.bootstrap(base)
        changed = base.copy()
        changed[labels == 0] *= 4.0
        report = inc.update(changed)
        # region 0 is ~1/4 of the grid: its local refresh yields a
        # single part, so membership does not churn
        if report.refreshed == [0] and report.n_regions == 4:
            assert report.n_relabelled == 0

    def test_n_regions_property(self, setup):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        inc.bootstrap(base)
        report = inc.update(base)
        assert report.n_regions == int(report.labels.max()) + 1

    def test_graph_and_k_accessors(self, setup):
        __, graph, __base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        assert inc.graph is graph
        assert inc.k == 4

    def test_update_metrics_recorded(self, setup):
        from repro.obs.metrics import MetricsRegistry, use_registry

        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        inc.bootstrap(base)
        registry = MetricsRegistry()
        with use_registry(registry):
            inc.update(base * 10.0)
        snapshot = registry.to_dict()
        assert snapshot["histograms"]["incremental.update_latency_s"]["count"] == 1
        assert "incremental.segments_relabelled" in snapshot["counters"]

    def test_repeated_updates_remain_consistent(self, setup):
        __, graph, base = setup
        rng = np.random.default_rng(0)
        inc = IncrementalRepartitioner(graph, k=4, staleness_threshold=0.2, seed=0)
        inc.bootstrap(base)
        densities = base
        for __ in range(3):
            densities = densities * rng.uniform(0.7, 1.6, size=densities.shape)
            report = inc.update(densities)
            labels = report.labels
            assert labels.shape == (graph.n_nodes,)
            assert labels.min() == 0


class TestNonFiniteDensities:
    """A NaN density would make its region's mean NaN, after which no
    change ever compares as material and the region never refreshes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bootstrap_rejects_non_finite(self, setup, bad):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        densities = base.copy()
        densities[3] = bad
        with pytest.raises(PartitioningError, match="finite"):
            inc.bootstrap(densities)
        assert inc.labels is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_update_rejects_non_finite_and_keeps_state(self, setup, bad):
        __, graph, base = setup
        inc = IncrementalRepartitioner(graph, k=4, seed=0)
        before = inc.bootstrap(base)
        published = []
        inc.subscribe(lambda *event: published.append(event))
        densities = base.copy()
        densities[0] = bad
        with pytest.raises(PartitioningError, match="finite"):
            inc.update(densities)
        assert published == []
        np.testing.assert_array_equal(inc.labels, before)
        # the region means are untouched: the old densities read as unchanged
        assert inc.update(base).refreshed == []
        # and a material jump still refreshes every region
        report = inc.update(base * 5.0)
        assert report.refreshed == list(range(int(before.max()) + 1))
