"""Property-based tests (hypothesis) for core invariants."""

import contextlib
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    adjacent_partition_pairs_loop,
    cluster_means_loop,
    kmeans_1d_prefix_reference,
)
from strategies import graphs_with_labels, kmeans_1d_problems

from repro.clustering.kmeans import kmeans, kmeans_1d, kmeans_1d_batch
from repro.clustering.optimality import (
    clustering_gain,
    moderated_clustering_gain,
)
from repro.core.alpha_cut import alpha_cut_quadratic_value, alpha_cut_value
from repro.graph.adjacency import Graph
from repro.graph.components import connected_components, is_connected
from repro.metrics.ans import ans
from repro.metrics.distances import (
    adjacent_partition_pairs,
    inter_metric,
    mean_abs_cross,
    mean_abs_pairwise,
)
from repro.metrics.gdbi import gdbi
from repro.metrics.partition_quality import (
    cost_of_partitioning,
    partition_volume,
)
from repro.supergraph.stability import stability

# the packages re-export functions under their modules' names
kmeans_mod = importlib.import_module("repro.clustering.kmeans")
PAIR_METRIC_MODULES = [
    importlib.import_module(f"repro.metrics.{name}") for name in ("ans", "distances", "gdbi")
]

# -- strategies ---------------------------------------------------------

densities = arrays(
    dtype=float,
    shape=st.integers(min_value=4, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def random_graph(draw, min_nodes=4, max_nodes=16):
    """A random undirected weighted graph with >= 1 edge."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), min_size=1, max_size=len(possible), unique=True
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
    return Graph(n, edges=edges)


@st.composite
def graph_with_labels(draw):
    g = draw(random_graph())
    labels = draw(
        st.lists(
            st.integers(0, 3), min_size=g.n_nodes, max_size=g.n_nodes
        )
    )
    __, dense = np.unique(labels, return_inverse=True)
    return g, dense


# -- k-means ------------------------------------------------------------


class TestKmeansProperties:
    @given(values=densities, kappa=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_labels_within_range_and_inertia_nonnegative(self, values, kappa):
        kappa = min(kappa, len(values))
        result = kmeans_1d(values, kappa)
        assert result.labels.min() >= 0
        assert result.labels.max() < kappa
        assert result.inertia >= 0.0

    @given(values=densities)
    @settings(max_examples=40, deadline=None)
    def test_nearest_center_assignment(self, values):
        kappa = min(3, len(values))
        result = kmeans_1d(values, kappa)
        d = np.abs(np.asarray(values)[:, None] - result.centers[None, :])
        best = d[np.arange(len(values)), result.labels]
        assert (best <= d.min(axis=1) + 1e-12).all()


    @given(problem=kmeans_1d_problems())
    @settings(max_examples=150, deadline=None)
    def test_batched_fits_equal_the_per_kappa_oracle(self, problem):
        values, kappas = problem
        for fit, kappa in zip(kmeans_1d_batch(values, kappas), kappas):
            ref = kmeans_1d_prefix_reference(values, kappa)
            assert fit.labels.dtype == ref.labels.dtype
            assert np.array_equal(fit.labels, ref.labels)
            assert fit.centers.tobytes() == ref.centers.tobytes()
            assert fit.inertia == ref.inertia
            assert fit.n_iter == ref.n_iter

    @given(
        data=arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 60), st.integers(2, 6)),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        kappa=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_nd_update_equals_the_per_cluster_loop(self, data, kappa, seed):
        kappa = min(kappa, data.shape[0])
        fast = kmeans(data, kappa, n_init=2, seed=seed)
        with mock.patch.object(kmeans_mod, "_cluster_means", cluster_means_loop):
            ref = kmeans(data, kappa, n_init=2, seed=seed)
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.centers.tobytes() == ref.centers.tobytes()
        assert fast.inertia == ref.inertia
        assert fast.n_iter == ref.n_iter


class TestOptimalityProperties:
    @given(values=densities, kappa=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_mcg_bounded_by_gain(self, values, kappa):
        kappa = min(kappa, len(values))
        labels = kmeans_1d(values, kappa).labels
        mcg = moderated_clustering_gain(values, labels)
        gain = clustering_gain(values, labels)
        assert 0.0 <= mcg <= gain + 1e-9


# -- stability ----------------------------------------------------------


class TestStabilityProperties:
    @given(
        feats=arrays(
            dtype=float,
            shape=st.integers(1, 30),
            elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stability_in_unit_interval(self, feats):
        assert 0.0 <= stability(feats) <= 1.0

    @given(
        value=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        n=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_constant_supernode_fully_stable(self, value, n):
        assert stability([value] * n) == pytest.approx(1.0)


# -- graph invariants ----------------------------------------------------


class TestGraphProperties:
    @given(g=random_graph())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, g):
        comp = connected_components(g.adjacency)
        assert comp.shape == (g.n_nodes,)
        # each component is internally connected
        for cid in range(comp.max() + 1):
            members = np.flatnonzero(comp == cid)
            assert is_connected(g.adjacency, members)

    @given(g=random_graph())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_is_twice_total_weight(self, g):
        assert g.degree().sum() == pytest.approx(2.0 * g.total_weight())

    @given(g=random_graph(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_subgraph_equals_the_validated_slice(self, g, data):
        """The trusted induced subgraph equals ``from_adjacency`` on the
        same slice: CSR arrays, dtypes and features, for ordered and
        shuffled node selections."""
        g = g.with_features(np.arange(g.n_nodes) * 0.25)
        nodes = data.draw(
            st.lists(st.integers(0, g.n_nodes - 1), unique=True, max_size=g.n_nodes)
        )
        if data.draw(st.booleans()):
            nodes = sorted(nodes)
        sub, index = g.subgraph(nodes)
        idx = np.asarray(nodes, dtype=int)
        want = Graph.from_adjacency(g.adjacency[idx][:, idx], features=g.features[idx])
        np.testing.assert_array_equal(index, idx)
        for got, expected in (
            (sub.adjacency.data, want.adjacency.data),
            (sub.adjacency.indices, want.adjacency.indices),
            (sub.adjacency.indptr, want.adjacency.indptr),
            (sub.features, want.features),
        ):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert sub.adjacency.shape == want.adjacency.shape

    @given(g=random_graph(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_subgraph_rejects_repeated_nodes(self, g, data):
        from repro.exceptions import GraphError

        nodes = data.draw(st.lists(st.integers(0, g.n_nodes - 1), min_size=1, max_size=8))
        nodes = nodes + [nodes[data.draw(st.integers(0, len(nodes) - 1))]]
        with pytest.raises(GraphError, match="unique"):
            g.subgraph(nodes)


# -- alpha-cut equivalences ----------------------------------------------


class TestAlphaCutProperties:
    @given(data=graph_with_labels())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_eq5_equals_eq6(self, data):
        g, labels = data
        assert alpha_cut_value(g.adjacency, labels) == pytest.approx(
            alpha_cut_quadratic_value(g.adjacency, labels), abs=1e-8
        )

    @given(data=graph_with_labels())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cost_plus_volume_conserved(self, data):
        g, labels = data
        total = g.total_weight()
        cost = cost_of_partitioning(g.adjacency, labels)
        volume = partition_volume(g.adjacency, labels)
        assert cost + volume == pytest.approx(total)


# -- metric helpers -------------------------------------------------------


class TestDistanceProperties:
    @given(values=densities)
    @settings(max_examples=40, deadline=None)
    def test_mean_abs_pairwise_nonnegative(self, values):
        assert mean_abs_pairwise(values) >= 0.0

    @given(x=densities, y=densities)
    @settings(max_examples=40, deadline=None)
    def test_mean_abs_cross_symmetric(self, x, y):
        assert mean_abs_cross(x, y) == pytest.approx(mean_abs_cross(y, x))

    @given(values=densities, shift=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_mean_abs_pairwise_translation_invariant(self, values, shift):
        assert mean_abs_pairwise(values) == pytest.approx(
            mean_abs_pairwise(np.asarray(values) + shift), abs=1e-9
        )

    @given(graph=graphs_with_labels(max_labels=6))
    @settings(max_examples=150, deadline=None)
    def test_adjacent_pairs_equal_the_loop(self, graph):
        adj, labels = graph
        pairs = adjacent_partition_pairs(adj, labels)
        assert pairs == adjacent_partition_pairs_loop(adj, labels)
        assert all(type(v) is int for pair in pairs for v in pair)

    @given(graph=graphs_with_labels(max_labels=6), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_pair_metrics_bit_identical_to_the_loop(self, graph, seed):
        adj, labels = graph
        __, labels = np.unique(labels, return_inverse=True)  # no empty partitions
        features = np.random.default_rng(seed).uniform(0.0, 1.0, len(labels))
        metrics = (ans, gdbi, inter_metric)
        fast = [metric(features, labels, adj) for metric in metrics]
        with contextlib.ExitStack() as stack:
            for module in PAIR_METRIC_MODULES:
                stack.enter_context(mock.patch.object(
                    module, "adjacent_partition_pairs", adjacent_partition_pairs_loop
                ))
            ref = [metric(features, labels, adj) for metric in metrics]
        assert np.array(fast).tobytes() == np.array(ref).tobytes()
