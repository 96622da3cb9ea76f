"""Integration tests: the full paper pipeline across modules."""

import numpy as np
import pytest

from repro.baselines.ncut import ncut_value
from repro.core.alpha_cut import alpha_cut_value
from repro.datasets.small import small_network
from repro.graph.affinity import congestion_affinity
from repro.network.dual import build_road_graph
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.pipeline.schemes import run_scheme
from repro.supergraph.builder import build_supergraph


@pytest.fixture(scope="module")
def d1():
    network, densities = small_network(seed=7)
    graph = build_road_graph(network).with_features(densities)
    return network, graph


class TestFullPipeline:
    def test_d1_all_schemes_produce_valid_partitions(self, d1):
        __, graph = d1
        for scheme in ("AG", "ASG", "NG", "NSG", "JG"):
            result = run_scheme(scheme, graph, 6, seed=0)
            validation = result.validate(graph)
            assert validation.is_valid, (scheme, validation.disconnected)
            assert result.k == 6

    def test_alpha_cut_beats_ncut_on_overall_quality(self, d1):
        """The paper's headline: AG outperforms NG on GDBI and ANS
        (median over repeated runs, moderate k)."""
        __, graph = d1
        ag_ans, ng_ans = [], []
        for seed in range(5):
            ag = run_scheme("AG", graph, 6, seed=seed).evaluate(graph)
            ng = run_scheme("NG", graph, 6, seed=seed).evaluate(graph)
            ag_ans.append(ag["ans"])
            ng_ans.append(ng["ans"])
        assert np.median(ag_ans) < np.median(ng_ans)

    def test_supergraph_reduces_order(self, d1):
        __, graph = d1
        sg = build_supergraph(graph, seed=0)
        assert sg.n_supernodes < graph.n_nodes / 2

    def test_asg_quality_close_to_ag(self, d1):
        """Partitioning the supergraph costs little quality relative to
        the direct road graph (paper Section 6.3)."""
        __, graph = d1
        ag = run_scheme("AG", graph, 6, seed=0).evaluate(graph)
        asg = run_scheme("ASG", graph, 6, seed=0).evaluate(graph)
        assert asg["ans"] < 3.0 * max(ag["ans"], 0.05)

    def test_objective_values_improve_over_random(self, d1):
        __, graph = d1
        affinity = congestion_affinity(graph)
        result = run_scheme("AG", graph, 6, seed=0)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 6, size=graph.n_nodes)
        __, random_labels = np.unique(random_labels, return_inverse=True)
        assert alpha_cut_value(affinity, result.labels) < alpha_cut_value(
            affinity, random_labels
        )

    def test_framework_matches_run_scheme(self, d1):
        network, graph = d1
        fw = SpatialPartitioningFramework(k=5, scheme="ASG", seed=3)
        via_framework = fw.partition(network, graph.features)
        via_scheme = run_scheme("ASG", graph, 5, seed=3)
        np.testing.assert_array_equal(via_framework.labels, via_scheme.labels)

    def test_labels_cover_all_segments(self, d1):
        network, graph = d1
        result = run_scheme("ASG", graph, 4, seed=0)
        assert result.labels.shape == (network.n_segments,)
        assert set(result.labels.tolist()) == set(range(result.k))


class TestRepartitionOverTime:
    """The paper's motivating use: repartition at regular intervals."""

    def test_repartition_over_time(self):
        from repro.datasets.small import small_network_series

        network, series = small_network_series(seed=0, n_steps=40)
        graph = build_road_graph(network)
        ks = []
        for t in (10, 20, 30):
            g_t = graph.with_features(series[t])
            result = run_scheme("ASG", g_t, 4, seed=0)
            assert result.validate(g_t).is_valid
            ks.append(result.k)
        assert ks == [4, 4, 4]
