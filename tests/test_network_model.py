"""Tests for repro.network.model."""

import numpy as np
import pytest
from oracles import simulate_objects

from repro.analysis.stats import partition_report
from repro.datasets.large import melbourne_like
from repro.exceptions import NetworkError
from repro.network.geometry import Point
from repro.network.model import Intersection, RoadNetwork, RoadSegment
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.pipeline.incremental import IncrementalRepartitioner
from repro.serve import SnapshotStore
from repro.serve.snapshot import attach_repartitioner
from repro.traffic.congestion import congested_speeds, congested_travel_times
from repro.traffic.demand import zone_centroids
from repro.traffic.density import densities_from_counts
from repro.traffic.mntg import MNTGenerator
from repro.traffic.routing import Router
from repro.traffic.signals import signalize
from repro.traffic.simulator import MicroSimulator


def _tiny_network():
    intersections = [
        Intersection(0, Point(0, 0)),
        Intersection(1, Point(100, 0)),
        Intersection(2, Point(100, 100)),
    ]
    segments = [
        RoadSegment(0, 0, 1, length=100.0, density=0.01),
        RoadSegment(1, 1, 0, length=100.0, density=0.02),
        RoadSegment(2, 1, 2, length=100.0, density=0.03),
    ]
    return RoadNetwork(intersections, segments)


class TestRoadSegment:
    def test_valid(self):
        seg = RoadSegment(0, 0, 1, length=50.0)
        assert seg.capacity == pytest.approx(50.0 * 0.15)

    def test_capacity_scales_with_lanes(self):
        one = RoadSegment(0, 0, 1, length=100.0, lanes=1)
        two = RoadSegment(0, 0, 1, length=100.0, lanes=2)
        assert two.capacity == 2 * one.capacity

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError, match="self-loop"):
            RoadSegment(0, 1, 1, length=10.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(NetworkError):
            RoadSegment(0, 0, 1, length=0.0)

    def test_negative_density_rejected(self):
        with pytest.raises(NetworkError):
            RoadSegment(0, 0, 1, length=1.0, density=-0.1)

    def test_zero_lanes_rejected(self):
        with pytest.raises(NetworkError):
            RoadSegment(0, 0, 1, length=1.0, lanes=0)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(NetworkError):
            RoadSegment(0, 0, 1, length=1.0, speed_limit=0.0)


class TestIntersection:
    def test_negative_id_rejected(self):
        with pytest.raises(NetworkError):
            Intersection(-1, Point(0, 0))


class TestRoadNetwork:
    def test_sizes(self):
        net = _tiny_network()
        assert net.n_intersections == 3
        assert net.n_segments == 3

    def test_dense_intersection_ids_required(self):
        with pytest.raises(NetworkError, match="dense"):
            RoadNetwork(
                [Intersection(0, Point(0, 0)), Intersection(2, Point(1, 1))],
                [],
            )

    def test_dense_segment_ids_required(self):
        inters = [Intersection(0, Point(0, 0)), Intersection(1, Point(1, 0))]
        with pytest.raises(NetworkError, match="dense"):
            RoadNetwork(inters, [RoadSegment(1, 0, 1, length=1.0)])

    def test_unknown_endpoint_rejected(self):
        inters = [Intersection(0, Point(0, 0)), Intersection(1, Point(1, 0))]
        with pytest.raises(NetworkError, match="unknown"):
            RoadNetwork(inters, [RoadSegment(0, 0, 7, length=1.0)])

    def test_outgoing_incoming(self):
        net = _tiny_network()
        assert net.outgoing(1) == (1, 2)
        assert net.incoming(1) == (0,)
        assert net.outgoing(2) == ()

    def test_outgoing_unknown_raises(self):
        with pytest.raises(NetworkError):
            _tiny_network().outgoing(99)

    def test_segment_lookup(self):
        net = _tiny_network()
        assert net.segment(2).target == 2
        with pytest.raises(NetworkError):
            net.segment(10)

    def test_segment_midpoint(self):
        net = _tiny_network()
        assert net.segment_midpoint(0) == Point(50, 0)

    def test_densities_vector(self):
        net = _tiny_network()
        np.testing.assert_allclose(net.densities(), [0.01, 0.02, 0.03])

    def test_set_densities(self):
        net = _tiny_network()
        net.set_densities([0.1, 0.2, 0.3])
        assert net.segment(1).density == 0.2

    def test_set_densities_wrong_shape(self):
        with pytest.raises(NetworkError, match="shape"):
            _tiny_network().set_densities([0.1])

    def test_set_densities_negative_rejected(self):
        with pytest.raises(NetworkError, match="non-negative"):
            _tiny_network().set_densities([0.1, -0.2, 0.3])

    def test_total_length(self):
        assert _tiny_network().total_length() == 300.0

    def test_area(self):
        assert _tiny_network().area_km2() == pytest.approx(0.01)


class TestObjectsBuiltOnlyWhenRead:
    """Generation, partitioning, incremental updates and epoch publishes
    read the network's arrays only; a hot path that reads ``.segments``
    or ``.intersections`` would build ~140k objects at table-3 scale."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        for cls in (RoadSegment, Intersection):

            def counting(obj, _post_init=cls.__post_init__):
                built.append(type(obj).__name__)
                _post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return built

    def test_partition_update_and_publish_build_no_objects(self, built):
        network, densities = melbourne_like("M1", 0.2)
        framework = SpatialPartitioningFramework(k=4, seed=0)
        framework.partition(network, densities)
        repartitioner = IncrementalRepartitioner(framework.last_road_graph, k=4, seed=0)
        store = SnapshotStore()
        attach_repartitioner(store, repartitioner, network=network)
        repartitioner.bootstrap(densities)
        repartitioner.update(densities * np.linspace(0.2, 3.0, network.n_segments))
        assert store.current().epoch == 2
        store.close()
        assert built == []

        network.segment(0)
        assert built == ["RoadSegment"] * network.n_segments
        network.intersections
        assert len(built) == network.n_segments + network.n_intersections

    def test_reports_build_no_objects_and_match_the_object_loops(self, built):
        network, densities = melbourne_like("M1", 0.1)
        labels = np.arange(network.n_segments) % 5
        reports = partition_report(network, labels, densities)
        speeds = congested_speeds(network, densities * 40)
        times = congested_travel_times(network, densities * 40)
        counts = np.arange(network.n_segments) % 4
        per_metre = densities_from_counts(network, counts)
        assert built == []

        # the loops over RoadSegment objects these replaced, bit for bit
        segments = network.segments
        lengths = np.array([seg.length for seg in segments])
        assert [r.total_length_km for r in reports] == [
            float(lengths[labels == region].sum() / 1000.0) for region in range(5)
        ]
        expected = np.empty(network.n_segments)
        for seg in segments:
            fraction = max(1.0 - densities[seg.id] * 40 / seg.lanes / 0.15, 0.05)
            expected[seg.id] = seg.speed_limit * fraction
        assert speeds.tobytes() == expected.tobytes()
        assert times.tobytes() == (lengths / expected).tobytes()
        assert per_metre.tobytes() == (counts.astype(float) / lengths).tobytes()

    def test_simulation_builds_no_objects_and_matches_the_object_loops(self, built):
        network = melbourne_like("M1", 0.1)[0]
        MicroSimulator(network, seed=0).run(50, 5)
        generator = MNTGenerator(network, seed=0)
        # enough vehicles on short steps that capacities, travel steps
        # and red lights decide the queues
        trips = generator.generate_trajectories(1500, 30)
        signals = signalize(network)
        results = [
            MicroSimulator(network, dt=5.0).run(0, 30, trips=trips, signals=lights)
            for lights in (None, signals)
        ]
        occupancy = [generator.occupancy_at(trips, t) for t in range(5)]
        router = Router(network, weight="length")
        zones = [list(range(0, network.n_intersections, 3)), [1, 4, 2]]
        centroids = zone_centroids(network, zones)
        assert built == []

        # the same trips through the loop over RoadSegment objects
        for result, lights in zip(results, (None, signals)):
            expected = simulate_objects(network, trips, 30, dt=5.0, signals=lights)
            assert result.densities.tobytes() == expected[0].tobytes()
            assert result.counts.tobytes() == expected[1].tobytes()
            assert result.flows.tobytes() == expected[2].tobytes()
            assert result.completed_trips == expected[3]
        segments, intersections = network.segments, network.intersections
        travel = [seg.length / seg.speed_limit for seg in segments]
        for t, counts in enumerate(occupancy):
            on_route = {}
            for trip in trips:
                elapsed = (t - trip.depart_time) * 30.0
                for sid in trip.segments if elapsed >= 0 else ():
                    if elapsed < travel[sid]:
                        on_route[sid] = on_route.get(sid, 0) + 1
                        break
                    elapsed -= travel[sid]
            assert counts == on_route
        adjacency = [[] for __ in intersections]
        for seg in segments:
            adjacency[seg.source].append((seg.target, seg.id, seg.length))
        assert router._adj == adjacency
        xs = np.array([inter.location.x for inter in intersections])
        assert network.intersection_coordinates()[0].tobytes() == xs.tobytes()
        assert [float(np.mean(xs[zone])) for zone in zones] == centroids[:, 0].tolist()
