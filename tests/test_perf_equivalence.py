"""Equivalence of the vectorized hot paths with their references.

The perf layer (sparse-incidence dual transform, prefix-sum 1-D
k-means, vectorized MCG, chunked n-D assignment) must not change any
result. These property-style tests pin the vectorized implementations
to the retained reference implementations across random networks and
datasets, including the structural edge cases called out in the paper:
star junctions (dual cliques), two-way streets (segment pairs sharing
both endpoints), and empty-cluster re-seeding.
"""

import numpy as np
import pytest

from repro.clustering.kmeans import (
    assign_to_centers,
    kmeans,
    kmeans_1d,
    kmeans_1d_reference,
    pairwise_sq_dists_reference,
)
from repro.clustering.optimality import (
    moderated_clustering_gain,
    moderated_clustering_gain_reference,
)
from repro.graph.adjacency import Graph
from repro.network.dual import (
    build_road_graph,
    segment_adjacency,
    segment_adjacency_reference,
)
from repro.network.generators import (
    grid_network,
    ring_radial_network,
    urban_network,
)
from repro.network.geometry import Point
from repro.network.model import Intersection, RoadNetwork, RoadSegment


def star_network(n_arms: int) -> RoadNetwork:
    """A single junction with ``n_arms`` two-way streets — a dual clique."""
    center = Intersection(0, Point(0.0, 0.0))
    tips = [
        Intersection(i + 1, Point(100.0 * np.cos(a), 100.0 * np.sin(a)))
        for i, a in enumerate(np.linspace(0, 2 * np.pi, n_arms, endpoint=False))
    ]
    segments = []
    sid = 0
    for i in range(n_arms):
        segments.append(RoadSegment(sid, 0, i + 1, length=100.0))
        sid += 1
        segments.append(RoadSegment(sid, i + 1, 0, length=100.0))
        sid += 1
    return RoadNetwork([center] + tips, segments)


class TestSegmentAdjacencyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_urban_networks(self, seed):
        net = urban_network(8 + seed, 10 + seed, seed=seed)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    @pytest.mark.parametrize("two_way", [True, False])
    def test_grids(self, two_way):
        net = grid_network(5, 7, two_way=two_way)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    def test_ring_radial(self):
        net = ring_radial_network(3, 9)
        assert segment_adjacency(net) == segment_adjacency_reference(net)

    @pytest.mark.parametrize("n_arms", [2, 3, 8])
    def test_star_junction_clique(self, n_arms):
        """Star junctions must produce the full dual clique."""
        net = star_network(n_arms)
        pairs = segment_adjacency(net)
        assert pairs == segment_adjacency_reference(net)
        # all 2*n_arms segments meet at the hub: a complete clique
        m = net.n_segments
        assert len(pairs) == m * (m - 1) // 2

    def test_two_way_street_pair_adjacent_once(self):
        """Opposite directions share both endpoints but appear once."""
        net = grid_network(2, 2, two_way=True)
        pairs = segment_adjacency(net)
        assert pairs == segment_adjacency_reference(net)
        assert len(pairs) == len(set(pairs))

    def test_pairs_sorted_with_python_ints(self):
        pairs = segment_adjacency(grid_network(3, 3, two_way=True))
        assert pairs == sorted(pairs)
        assert all(isinstance(u, int) and isinstance(v, int) for u, v in pairs)
        assert all(u < v for u, v in pairs)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_build_road_graph_matches_edge_list_construction(self, seed):
        net = urban_network(9, 9, seed=seed)
        reference = Graph(
            net.n_segments,
            edges=segment_adjacency_reference(net),
            features=net.densities(),
        )
        fast = build_road_graph(net)
        assert (reference.adjacency != fast.adjacency).nnz == 0
        assert np.array_equal(reference.features, fast.features)


class TestMCGEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_on_random_clusterings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 300))
        kappa = int(rng.integers(1, min(12, n)))
        data = rng.gamma(2.0, 0.02, size=n)
        labels = rng.integers(0, kappa, size=n)
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_bit_identical_with_empty_clusters(self):
        data = np.array([0.1, 0.2, 0.3, 5.0, 5.1])
        labels = np.array([0, 0, 0, 3, 3])  # clusters 1 and 2 empty
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_bit_identical_on_multidimensional_data(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(80, 3))
        labels = rng.integers(0, 5, size=80)
        assert moderated_clustering_gain(
            data, labels
        ) == moderated_clustering_gain_reference(data, labels)

    def test_degenerate_single_cluster(self):
        """A cluster mean equal to the global mean contributes zero."""
        data = np.ones(10)
        labels = np.zeros(10, dtype=int)
        assert moderated_clustering_gain(data, labels) == 0.0
        assert moderated_clustering_gain_reference(data, labels) == 0.0


class TestKMeans1dEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_labels_match_reference_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        data = rng.gamma(2.0, 0.02, size=n)
        for kappa in (1, 2, min(7, n), max(min(29, n - 1), 1)):
            fast = kmeans_1d(data, kappa)
            ref = kmeans_1d_reference(data, kappa)
            assert np.array_equal(fast.labels, ref.labels)
            assert fast.centers == pytest.approx(ref.centers, rel=1e-9, abs=1e-12)
            assert fast.inertia == pytest.approx(ref.inertia, rel=1e-9, abs=1e-12)
            assert fast.n_iter == ref.n_iter

    def test_presorted_fast_path_is_bit_identical(self):
        rng = np.random.default_rng(4)
        data = rng.gamma(2.0, 0.02, size=500)
        sorted_vals = np.sort(data, kind="stable")
        for kappa in (2, 5, 17):
            plain = kmeans_1d(data, kappa)
            shared = kmeans_1d(data, kappa, presorted=sorted_vals)
            assert np.array_equal(plain.labels, shared.labels)
            assert np.array_equal(plain.centers, shared.centers)
            assert plain.inertia == shared.inertia
            assert plain.n_iter == shared.n_iter

    def test_presorted_shape_mismatch_rejected(self):
        from repro.exceptions import ClusteringError

        with pytest.raises(ClusteringError):
            kmeans_1d([1.0, 2.0, 3.0], 2, presorted=np.array([1.0, 2.0]))

    def test_empty_cluster_reseeding(self):
        """kappa above the distinct-value count forces re-seeding."""
        data = np.r_[np.zeros(10), 1e6]
        fast = kmeans_1d(data, 3)
        ref = kmeans_1d_reference(data, 3)
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.centers == pytest.approx(ref.centers)

    def test_constant_values(self):
        data = np.full(8, 3.3)
        fast = kmeans_1d(data, 2)
        ref = kmeans_1d_reference(data, 2)
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.centers == pytest.approx(ref.centers)

    def test_duplicated_values(self):
        data = np.r_[np.zeros(5), np.ones(5)]
        for kappa in (2, 4):
            fast = kmeans_1d(data, kappa)
            ref = kmeans_1d_reference(data, kappa)
            assert np.array_equal(fast.labels, ref.labels)

    def test_labels_in_input_order(self):
        """Labels align with the caller's (unsorted) value order."""
        data = np.array([5.0, 0.1, 4.9, 0.2])
        result = kmeans_1d(data, 2)
        assert result.labels[0] == result.labels[2]
        assert result.labels[1] == result.labels[3]
        assert result.labels[0] != result.labels[1]


class TestNDAssignmentEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_labels_match_broadcast_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 500))
        d = int(rng.integers(1, 6))
        kappa = int(rng.integers(1, 9))
        data = rng.normal(size=(n, d))
        centers = rng.normal(size=(kappa, d))
        ref_d2 = pairwise_sq_dists_reference(data, centers)
        labels, min_d2 = assign_to_centers(data, centers)
        assert np.array_equal(labels, ref_d2.argmin(axis=1))
        assert min_d2 == pytest.approx(ref_d2[np.arange(n), labels])

    def test_chunking_does_not_change_assignment(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(257, 4))
        centers = rng.normal(size=(6, 4))
        full, d2_full = assign_to_centers(data, centers, chunk_cells=1 << 30)
        tiny, d2_tiny = assign_to_centers(data, centers, chunk_cells=8)
        assert np.array_equal(full, tiny)
        # BLAS may pick different kernels per chunk shape; values agree
        # to rounding while the discrete assignment is identical
        assert d2_tiny == pytest.approx(d2_full, rel=1e-12, abs=1e-12)

    def test_rows_past_the_serial_gemm_bound_match_the_reference(self):
        """20,000 rows of 8-d eigen-rows against 8 centers take several
        single-thread products; the assignment is the reference's."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20_000, 8))
        centers = rng.normal(size=(8, 8))
        ref_d2 = pairwise_sq_dists_reference(data, centers)
        labels, min_d2 = assign_to_centers(data, centers)
        assert np.array_equal(labels, ref_d2.argmin(axis=1))
        assert min_d2 == pytest.approx(ref_d2[np.arange(20_000), labels], abs=1e-9)

    def test_full_kmeans_with_empty_cluster_reseeding(self):
        """Duplicated points force empty clusters through the new path."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(3, 2))
        data = np.repeat(base, 5, axis=0)
        result = kmeans(data, kappa=5, seed=0)
        assert result.labels.shape == (15,)
        assert set(result.labels) <= set(range(5))
        assert result.inertia >= 0.0

    def test_kmeans_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(60, 3))
        a = kmeans(data, kappa=4, seed=42)
        b = kmeans(data, kappa=4, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
