"""Tests for Algorithm 1 end to end (SupergraphBuilder)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import create_supernodes_loop, membership_vector

from repro.clustering.kmeans import kmeans_1d
from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import count_constrained_components, is_connected
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.supergraph.builder import SupergraphBuilder, build_supergraph


def _stepped_path(n_groups=4, per=10, step=1.0, noise=0.02, seed=0):
    """A path graph whose densities form n_groups plateaus."""
    rng = np.random.default_rng(seed)
    n = n_groups * per
    feats = np.concatenate(
        [step * g + rng.normal(0, noise, per) for g in range(n_groups)]
    )
    feats = np.abs(feats)
    return Graph(n, edges=[(i, i + 1) for i in range(n - 1)], features=feats)


class TestBuildSupergraph:
    def test_condenses_plateaus(self):
        graph = _stepped_path()
        sg = build_supergraph(graph, seed=0)
        assert sg.n_supernodes < graph.n_nodes
        assert sg.n_road_nodes == graph.n_nodes

    def test_cover_is_partition(self):
        graph = _stepped_path()
        sg = build_supergraph(graph, seed=0)
        membership_vector(list(sg.supernodes), graph.n_nodes)

    def test_supernodes_connected_in_road_graph(self):
        graph = _stepped_path()
        sg = build_supergraph(graph, seed=0)
        for sn in sg.supernodes:
            assert is_connected(graph.adjacency, sn.members)

    def test_supernodes_internally_similar(self):
        """Members of one supernode sit on one density plateau."""
        graph = _stepped_path()
        sg = build_supergraph(graph, seed=0)
        feats = np.asarray(graph.features)
        for sn in sg.supernodes:
            assert np.ptp(feats[sn.members]) < 0.5  # plateau step is 1.0

    def test_report_filled(self):
        graph = _stepped_path()
        builder = SupergraphBuilder(seed=0)
        builder.build(graph)
        report = builder.report
        assert report is not None
        assert report.chosen_kappa in report.shortlisted
        assert len(report.component_counts) == len(report.shortlisted)
        assert min(report.component_counts) == report.component_counts[
            report.shortlisted.index(report.chosen_kappa)
        ]

    def test_stability_threshold_grows_supernodes(self):
        graph = _stepped_path(noise=0.15, seed=1)
        plain = build_supergraph(graph, epsilon_eta=0.0, seed=0)
        stable = build_supergraph(graph, epsilon_eta=0.995, seed=0)
        assert stable.n_supernodes >= plain.n_supernodes

    def test_absolute_threshold_path(self):
        graph = _stepped_path()
        sg = build_supergraph(graph, epsilon_theta=0.0, seed=0)
        assert sg.n_supernodes >= 1

    def test_sampled_scan(self):
        graph = _stepped_path(per=50)
        sg = build_supergraph(graph, sample_size=80, seed=0)
        assert sg.n_supernodes < graph.n_nodes

    def test_superlink_weights_unit_interval(self):
        graph = _stepped_path()
        sg = build_supergraph(graph, seed=0)
        if sg.adjacency.nnz:
            assert sg.adjacency.data.min() > 0.0
            assert sg.adjacency.data.max() <= 1.0 + 1e-12

    def test_too_small_graph_rejected(self):
        with pytest.raises(GraphError):
            build_supergraph(Graph(2, edges=[(0, 1)], features=[0.0, 1.0]))

    def test_invalid_epsilon_eta(self):
        with pytest.raises(GraphError):
            SupergraphBuilder(epsilon_eta=2.0)

    def test_deterministic_given_seed(self):
        graph = _stepped_path()
        a = build_supergraph(graph, seed=5)
        b = build_supergraph(graph, seed=5)
        assert a.n_supernodes == b.n_supernodes
        np.testing.assert_array_equal(a.member_of, b.member_of)


class TestKmeansMethodOption:
    def test_optimal_method_builds(self):
        graph = _stepped_path(noise=0.1, seed=2)
        sg = SupergraphBuilder(kmeans_method="optimal", seed=0).build(graph)
        assert 1 <= sg.n_supernodes <= graph.n_nodes

    def test_optimal_never_more_supernodes(self):
        graph = _stepped_path(noise=0.1, seed=2)
        lloyd_builder = SupergraphBuilder(kmeans_method="lloyd", seed=0)
        optimal_builder = SupergraphBuilder(kmeans_method="optimal", seed=0)
        lloyd_sg = lloyd_builder.build(graph)
        optimal_sg = optimal_builder.build(graph)
        # both pick the min-supernode configuration from their own
        # (possibly different) shortlists; the exact clusterer should
        # not be forced into a wildly larger supergraph
        assert optimal_sg.n_supernodes <= 2 * lloyd_sg.n_supernodes

    def test_invalid_method_rejected(self):
        with pytest.raises(GraphError):
            SupergraphBuilder(kmeans_method="magic")


def _grid(side: int, densities) -> Graph:
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return Graph(side * side, edges=edges, features=densities)


def _refit(graph: Graph, kappas):
    """The refit path, run by hand: one ``kmeans_1d`` fit and count per kappa."""
    features = np.asarray(graph.features, dtype=float)
    upper = sp.triu(graph.adjacency, k=1, format="csr")
    fits = [kmeans_1d(features, kappa) for kappa in kappas]
    return [(fit, count_constrained_components(upper, fit.labels)) for fit in fits]


def _counted_build(graph: Graph, **kwargs):
    builder = SupergraphBuilder(seed=0, **kwargs)
    registry = MetricsRegistry()
    with use_registry(registry):
        supergraph = builder.build(graph)
    return builder.report, supergraph, registry


class TestShortlistReusesScan:
    """An unsampled Lloyd scan has already fitted every shortlisted kappa
    on the full densities; the builder takes those fits instead of
    refitting."""

    @given(
        densities=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=49, max_size=49
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_same_outcome_as_refit(self, densities):
        assume(len(set(densities)) >= 8)
        graph = _grid(7, densities)
        report, supergraph, __ = _counted_build(graph, epsilon_fraction=0.9)

        refits = _refit(graph, report.shortlisted)
        counts = [count for __, count in refits]
        assert report.component_counts == counts
        best = int(np.argmin(counts))  # first minimum, like the builder's strict <
        assert report.chosen_kappa == report.shortlisted[best]
        result = refits[best][0]
        expected = create_supernodes_loop(
            graph.adjacency, result.labels, cluster_means=result.centers
        )
        assert len(supergraph.supernodes) == len(expected)
        for got, want in zip(supergraph.supernodes, expected):
            np.testing.assert_array_equal(got.members, want.members)
            assert got.feature == want.feature

    def test_unsampled_build_fits_only_in_the_scan(self):
        report, __, registry = _counted_build(_stepped_path(), epsilon_fraction=0.9)
        assert not report.scan.sampled
        assert len(report.shortlisted) > 1
        assert registry.counter("kmeans1d.fits") == registry.counter("kappa_scan.candidates")

    def test_sampled_build_refits_the_shortlist(self):
        graph = _stepped_path(per=50)
        report, __, registry = _counted_build(graph, sample_size=80, epsilon_fraction=0.9)
        assert report.scan.sampled
        assert registry.counter("kmeans1d.fits") == (
            registry.counter("kappa_scan.candidates") + len(report.shortlisted)
        )
        refits = _refit(graph, report.shortlisted)
        assert report.component_counts == [count for __, count in refits]


class TestWorkingMemory:
    """Module 2 streams through kappa: the scan holds each kappa's
    centers, the shortlist one candidate's labels beside the winner's,
    and the superlinks go straight into CSR arrays."""

    #: tracemalloc peak of one build above its starting memory, per road
    #: node: about 1.3x the 226 B measured on M1 (656 B when the scan
    #: held every kappa's labels)
    PEAK_BYTES_PER_NODE = 300

    def test_build_peak_stays_under_budget(self):
        import tracemalloc

        from repro.datasets.large import melbourne_like
        from repro.network.dual import build_road_graph

        network, densities = melbourne_like("M1", seed=0)
        graph = build_road_graph(network).with_features(densities)
        assert graph.n_nodes == 16263
        SupergraphBuilder().build(graph)  # first-call imports and caches
        builder = SupergraphBuilder()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            builder.build(graph)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / graph.n_nodes < self.PEAK_BYTES_PER_NODE, peak / graph.n_nodes
        scan = builder.report.scan
        held = [
            value for value in vars(scan.fits).values()
            if isinstance(value, list) and any(
                isinstance(item, np.ndarray) and item.size == graph.n_nodes for item in value
            )
        ]
        assert held == [], "the scan keeps a label vector per kappa"
        assert all(centers.size == kappa for kappa, centers in zip(scan.kappas, scan.fits.centers))
