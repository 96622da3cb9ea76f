"""Whole-pipeline property tests.

hypothesis generates random small road networks with random congestion
fields; the framework must always deliver the contract: exactly k
disjoint, connected partitions covering every segment, for every
scheme, with sane metric values. Incremental updates under random
drift must match the region-by-region oracle, keep labels dense and
every region connected, and change nothing when nothing drifted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import incremental_update_loop

from repro.graph.components import count_constrained_components
from repro.metrics.validation import validate_partitioning
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network, ring_radial_network
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.pipeline.schemes import run_scheme
from repro.traffic.profiles import hotspot_profile


@st.composite
def network_with_densities(draw):
    """A small road network plus a random density field."""
    kind = draw(st.sampled_from(["grid", "ring"]))
    if kind == "grid":
        rows = draw(st.integers(3, 5))
        cols = draw(st.integers(3, 5))
        network = grid_network(rows, cols, two_way=True)
    else:
        rings = draw(st.integers(2, 3))
        radials = draw(st.integers(4, 7))
        network = ring_radial_network(rings, radials)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    style = draw(st.sampled_from(["uniform", "bimodal", "sparse"]))
    n = network.n_segments
    if style == "uniform":
        densities = rng.random(n) * 0.15
    elif style == "bimodal":
        densities = np.where(rng.random(n) < 0.5, 0.01, 0.12)
        densities = densities * rng.uniform(0.8, 1.2, size=n)
    else:
        densities = np.zeros(n)
        hot = rng.choice(n, size=max(1, n // 5), replace=False)
        densities[hot] = rng.random(hot.size) * 0.15
    return network, densities, seed


class TestPipelineProperties:
    @given(data=network_with_densities(), k=st.integers(2, 5))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_asg_contract(self, data, k):
        network, densities, seed = data
        graph = build_road_graph(network).with_features(densities)
        result = run_scheme("ASG", graph, k, seed=seed)
        validation = validate_partitioning(graph.adjacency, result.labels)
        assert validation.is_valid
        assert result.labels.shape == (network.n_segments,)
        assert sum(validation.sizes) == network.n_segments

    @given(data=network_with_densities(), k=st.integers(2, 4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ag_exact_k_and_connected(self, data, k):
        network, densities, seed = data
        graph = build_road_graph(network).with_features(densities)
        result = run_scheme("AG", graph, k, seed=seed)
        assert result.k == k
        assert validate_partitioning(graph.adjacency, result.labels).is_valid

    @given(data=network_with_densities())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_metrics_always_finite(self, data):
        network, densities, seed = data
        graph = build_road_graph(network).with_features(densities)
        result = run_scheme("ASG", graph, 3, seed=seed)
        metrics = result.evaluate(graph)
        for name, value in metrics.items():
            assert np.isfinite(value), (name, value)
        assert metrics["inter"] >= 0
        assert metrics["intra"] >= 0
        assert metrics["ans"] >= 0


@st.composite
def drift_runs(draw):
    """A small grid, a bootstrap snapshot and a few drifted snapshots.

    Each step either leaves the densities as they are, scales a random
    quarter of the segments by one factor (a hotspot flaring or fading)
    or multiplies every density by independent noise.
    """
    # the 8- and 14-segment grids give regions of three segments that
    # must still split; the larger ones give regions of many sizes
    rows, cols = draw(st.sampled_from([(2, 2), (2, 3), (5, 5), (5, 6), (6, 6)]))
    network = grid_network(rows, cols, two_way=True)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    hotspots = draw(st.integers(1, 3))
    start = hotspot_profile(network, n_hotspots=hotspots, noise=0.1, seed=seed)
    steps = []
    densities = start
    kinds = st.lists(st.sampled_from(["same", "hotspot", "noise"]), min_size=1, max_size=3)
    for kind in draw(kinds):
        if kind == "hotspot":
            hot = rng.choice(densities.size, size=max(1, densities.size // 4), replace=False)
            densities = densities.copy()
            densities[hot] *= rng.uniform(0.2, 5.0)
        elif kind == "noise":
            densities = densities * rng.uniform(0.5, 2.0, size=densities.size)
        steps.append(densities)
    return network, start, steps


class TestIncrementalProperties:
    # with k >= 3 about a third of the updates that refresh a region
    # also split one; with k = 2 almost none do
    @given(run=drift_runs(), k=st.integers(3, 8), threshold=st.sampled_from([0.05, 0.25]))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_update_matches_region_loop_oracle(self, run, k, threshold):
        network, start, steps = run
        graph = build_road_graph(network)
        inc = IncrementalRepartitioner(graph, k=k, staleness_threshold=threshold, seed=0)
        labels = inc.bootstrap(start)
        previous = start
        for densities in steps:
            expected = incremental_update_loop(
                graph, labels, previous, densities, k, "ASG", threshold, 0
            )
            report = inc.update(densities)
            np.testing.assert_array_equal(report.labels, expected[0])
            assert report.refreshed == expected[1]
            assert report.kept == expected[2]
            assert report.n_relabelled == expected[3]
            labels, previous = report.labels, densities

    @given(run=drift_runs(), k=st.integers(3, 8))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_updates_stay_dense_connected_and_idle_without_drift(self, run, k):
        network, start, steps = run
        graph = build_road_graph(network)
        inc = IncrementalRepartitioner(graph, k=k, staleness_threshold=0.05, seed=0)
        inc.bootstrap(start)
        for densities in steps:
            labels = inc.update(densities).labels
            n_regions = int(labels.max()) + 1
            assert np.array_equal(np.unique(labels), np.arange(n_regions))
            assert count_constrained_components(graph.adjacency, labels) == n_regions
            # the same snapshot again is a zero-delta update
            idle = inc.update(densities)
            assert idle.refreshed == []
            assert idle.n_relabelled == 0
            np.testing.assert_array_equal(idle.labels, labels)


class TestNonFiniteDensities:
    """A NaN or infinite density fails where it enters, with a named
    error, before any scheme runs on it."""

    @given(
        data=network_with_densities(),
        scheme=st.sampled_from(["AG", "NG", "JG", "ASG", "NSG"]),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        where=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_scheme_rejects_non_finite_densities(self, data, scheme, bad, where):
        from repro.exceptions import GraphError, NetworkError

        network, densities, __ = data
        densities = densities.copy()
        densities[where % densities.size] = bad
        with pytest.raises(NetworkError, match="finite"):
            network.set_densities(densities)
        with pytest.raises(GraphError, match="finite"):
            graph = build_road_graph(network).with_features(densities)
            run_scheme(scheme, graph, 3, seed=0)
