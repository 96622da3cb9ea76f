"""Tests for Algorithm 1 end to end (SupergraphBuilder)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import is_connected
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.shard.pipeline import ShardedSupergraphBuilder
from repro.supergraph.builder import SupergraphBuilder, _fit_and_count, build_supergraph
from repro.supergraph.supernode import create_supernodes, membership_vector


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
    """The refit path, run by hand: ``_fit_and_count`` per kappa."""
    features = np.asarray(graph.features, dtype=float)
    upper = sp.triu(graph.adjacency, k=1, format="csr")
    presorted = np.sort(features, kind="stable")
    return [_fit_and_count(upper, features, presorted, kappa) for kappa in kappas]


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
        expected = create_supernodes(graph.adjacency, result.labels, cluster_means=result.centers)
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

    @pytest.mark.parametrize("sample_size", [None, 80])
    def test_every_mode_gives_the_same_build(self, sample_size):
        """Reused and refitted shortlists alike come out in kappa order in
        every pool: the loop or threads unsharded, the loop or processes
        over two shards."""
        graph = _stepped_path(per=50, noise=0.1)
        for n_shards in (None, 2):
            outcomes = []
            for workers in (1, 2):
                if n_shards is None:
                    builder = SupergraphBuilder(
                        seed=0, sample_size=sample_size, workers=workers
                    )
                    supergraph = builder.build(graph)
                    report = builder.report
                    outcome = (report.component_counts, report.chosen_kappa)
                else:
                    builder = ShardedSupergraphBuilder(
                        n_shards=n_shards, seed=0, sample_size=sample_size, workers=workers
                    )
                    supergraph = builder.build(graph)
                    report = builder.report
                    outcome = (report.shard_kappas, report.shard_supernodes)
                outcomes.append((outcome, supergraph.member_of.tolist()))
            assert outcomes[0] == outcomes[1]
