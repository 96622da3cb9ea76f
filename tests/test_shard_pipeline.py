"""ShardedSupergraphBuilder: delegation, invariance, equivalence.

The contract under test:

* ``n_shards=1`` → **bit-identical** to the serial
  :class:`~repro.supergraph.SupergraphBuilder`;
* fixed ``n_shards > 1`` → identical output for every worker count,
  whether the shards are mined in the calling thread or in a process
  pool (parallelism changes speed, never results);
* shard-stitched output is a valid partition of comparable quality to
  the single-process reference (stitching legitimately reorders ties,
  so quality metrics — not labels — carry the equivalence at >1
  shard).
"""

import numpy as np
import pytest

from repro.datasets import small_network
from repro.exceptions import GraphError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.graph.components import is_connected
from repro.network.dual import build_road_graph
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.pipeline.schemes import run_scheme
from repro.shard.pipeline import (
    MIN_SHARD_NODES,
    ShardedSupergraphBuilder,
    build_supergraph_sharded,
)
from repro.shard.spatial import segment_midpoints
from repro.supergraph.builder import SupergraphBuilder
from repro.supergraph.supernode import membership_vector


@pytest.fixture(scope="module")
def city():
    """A small simulated city: (road_graph, midpoints, network)."""
    network, densities = small_network(seed=7)
    network.set_densities(densities)
    graph = build_road_graph(network)
    return graph, segment_midpoints(network), network


class TestDelegation:
    def test_one_shard_is_bit_identical_to_serial(self, city):
        graph, points, __ = city
        serial = SupergraphBuilder(seed=3).build(graph)
        sharded = ShardedSupergraphBuilder(n_shards=1, seed=3).build(
            graph, points=points
        )
        assert np.array_equal(serial.member_of, sharded.member_of)
        assert np.array_equal(serial.features(), sharded.features())
        assert (serial.adjacency != sharded.adjacency).nnz == 0

    def test_delegated_report(self, city):
        graph, points, __ = city
        builder = ShardedSupergraphBuilder(n_shards=1, seed=3)
        sg = builder.build(graph, points=points)
        report = builder.report
        assert report.n_shards == 1
        assert report.shard_sizes == [graph.n_nodes]
        assert report.stitch_kappa is None
        assert report.n_supernodes == sg.n_supernodes

    def test_tiny_graphs_clamp_to_one_shard(self, city):
        graph, points, __ = city
        builder = ShardedSupergraphBuilder(n_shards=64)
        max_useful = graph.n_nodes // MIN_SHARD_NODES
        assert builder.resolve_shards(graph.n_nodes) == max_useful

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(GraphError):
            ShardedSupergraphBuilder(n_shards=0)


class TestWorkerInvariance:
    @pytest.mark.parametrize(
        "workers,pool",
        [(1, "serial"), (2, "thread"), (4, "thread"), (2, "process")],
    )
    def test_output_independent_of_execution(self, city, workers, pool):
        """Four shards mine in the loop or in processes; one shard
        delegates to the whole-graph builder, whose maps run on threads.
        Either way the output matches the single-worker build."""
        graph, points, __ = city
        n_shards = 1 if pool == "thread" else 4
        reference = ShardedSupergraphBuilder(
            n_shards=n_shards, seed=11, workers=1
        ).build(graph, points=points)
        registry = MetricsRegistry()
        with use_registry(registry):
            sharded = ShardedSupergraphBuilder(
                n_shards=n_shards, seed=11, workers=workers
            ).build(graph, points=points)
        # both pools report utilization; only processes report how many
        # worker processes ran; the loop reports neither
        utilization = registry.gauge("parallel.utilization")
        assert (utilization is not None) == (pool != "serial")
        used = registry.gauge("parallel.workers_used")
        assert (used is not None) == (pool == "process")
        assert np.array_equal(reference.member_of, sharded.member_of)
        assert np.array_equal(reference.features(), sharded.features())

    def test_deterministic_across_repeats(self, city):
        graph, points, __ = city
        a = ShardedSupergraphBuilder(n_shards=3, seed=5).build(graph, points=points)
        b = ShardedSupergraphBuilder(n_shards=3, seed=5).build(graph, points=points)
        assert np.array_equal(a.member_of, b.member_of)


class TestStitchedOutput:
    def test_valid_supergraph(self, city):
        graph, points, __ = city
        builder = ShardedSupergraphBuilder(n_shards=4, seed=2)
        sg = builder.build(graph, points=points)
        # the supernode cover is a partition of the road graph
        membership_vector(list(sg.supernodes), graph.n_nodes)
        # every supernode is connected in the road graph (stitching
        # only merges supernodes joined by cross-shard road edges)
        for sn in sg.supernodes:
            assert is_connected(graph.adjacency, sn.members)

    def test_stitching_merges_boundary_supernodes(self, city):
        graph, points, __ = city
        builder = ShardedSupergraphBuilder(n_shards=4, seed=2)
        sg = builder.build(graph, points=points)
        report = builder.report
        assert report.n_cross_edges > 0
        assert report.n_supernodes_before_stitch == sum(report.shard_supernodes)
        assert sg.n_supernodes <= report.n_supernodes_before_stitch
        assert report.stitch_kappa is not None

    def test_condensation_comparable_to_serial(self, city):
        """Sharding must not destroy the supergraph's reduction."""
        graph, points, __ = city
        serial = SupergraphBuilder(seed=2).build(graph)
        sharded = ShardedSupergraphBuilder(n_shards=4, seed=2).build(
            graph, points=points
        )
        assert sharded.n_supernodes < graph.n_nodes / 2
        # same order of magnitude as the serial condensation
        assert sharded.n_supernodes <= 6 * max(serial.n_supernodes, 1)

    def test_merged_features_within_density_range(self, city):
        graph, points, __ = city
        builder = ShardedSupergraphBuilder(n_shards=4, seed=2)
        sg = builder.build(graph, points=points)
        feats = np.asarray(graph.features)
        lo, hi = feats.min(), feats.max()
        for sn in sg.supernodes:
            # supernode features are (weighted means of) k-means
            # cluster means, so they can leave an individual
            # component's member range — like the serial builder's —
            # but never the global density range
            assert lo - 1e-9 <= sn.feature <= hi + 1e-9
            assert np.isfinite(sn.feature)


class TestSchemeEquivalence:
    def test_sharded_scheme_quality_within_tolerance(self, city):
        """Paper metrics of the sharded ASG run track the serial run."""
        graph, __, ___ = city
        serial = run_scheme("ASG", graph, k=4, seed=9)
        sharded = run_scheme("ASG", graph, k=4, seed=9, n_shards=2, workers=2)
        m_serial = serial.evaluate(graph)
        m_sharded = sharded.evaluate(graph)
        assert m_sharded["k"] == m_serial["k"]
        # ANS/GDBI are lower-better; stitching may reorder ties but
        # must stay in the same quality regime
        assert m_sharded["ans"] <= 1.5 * m_serial["ans"] + 1e-6
        assert m_sharded["gdbi"] <= 1.5 * m_serial["gdbi"] + 1e-6

    def test_sharded_scheme_output_mode_invariant(self, city):
        graph, __, ___ = city
        a = run_scheme("ASG", graph, k=4, seed=9, n_shards=3, workers=1)
        b = run_scheme("ASG", graph, k=4, seed=9, n_shards=3, workers=2)
        assert np.array_equal(a.labels, b.labels)

    def test_one_shot_wrapper(self, city):
        graph, points, __ = city
        sg = build_supergraph_sharded(graph, n_shards=2, points=points, seed=1)
        assert sg.n_road_nodes == graph.n_nodes


class TestFrameworkIntegration:
    def test_partition_with_shards(self, city):
        __, ___, network = city
        framework = SpatialPartitioningFramework(
            k=4, scheme="ASG", seed=7, workers=2, n_shards=3
        )
        result = framework.partition(network)
        assert result.k == 4
        assert result.validate(framework.last_road_graph).is_valid
        manifest = result.manifest
        assert manifest["config"]["n_shards"] == 3
        assert manifest["stages"]["module2"] == {
            "pool": "process",
            "workers": 2,
            "n_shards": 3,
        }
        assert manifest["workers_requested"] == 2
        assert manifest["workers_resolved"] == 2

    def test_manifest_resolves_zero_workers(self, city):
        import os

        __, ___, network = city
        framework = SpatialPartitioningFramework(k=3, scheme="AG", seed=1, workers=0)
        result = framework.partition(network)
        assert result.manifest["workers_requested"] == 0
        assert result.manifest["workers_resolved"] == (os.cpu_count() or 1)
