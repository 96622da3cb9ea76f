"""MNTG-like random road-traffic generator.

The paper populated its Melbourne networks with vehicles using MNTG, a
web-based random traffic generator, obtained trajectories for 100
timestamps, and mapped positions to segments with a self-written
program. This module reproduces that pipeline offline:

* origin/destination intersections are sampled with gravity weighting
  toward the network centre (vehicles concentrate around the CBD, the
  structure the partitioner must discover);
* each vehicle follows its shortest (free-flow time) route;
* positions are reported every ``dt`` seconds as planar coordinates,
  exactly the interface a map-matcher consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.network.geometry import Point, interpolate
from repro.network.model import RoadNetwork
from repro.traffic.routing import Router
from repro.util.rng import RngLike, ensure_rng


@dataclass
class Trajectory:
    """One vehicle's route and progress metadata.

    Attributes
    ----------
    vehicle_id:
        Dense vehicle id.
    depart_time:
        Timestamp index at which the vehicle enters the network.
    segments:
        Segment ids along the route, in travel order.
    """

    vehicle_id: int
    depart_time: int
    segments: List[int] = field(default_factory=list)


class MNTGenerator:
    """Random-trip traffic generator over a road network.

    Parameters
    ----------
    network:
        The road network to generate traffic on.
    centre_bias:
        Strength of the gravity pull toward the network centroid when
        sampling origins/destinations; 0 gives uniform sampling, larger
        values concentrate trips in the centre (default 2.0).
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        network: RoadNetwork,
        centre_bias: float = 2.0,
        seed: RngLike = None,
    ) -> None:
        if centre_bias < 0:
            raise ValueError(f"centre_bias must be non-negative, got {centre_bias}")
        if network.n_intersections < 2:
            raise DataError("traffic generation needs at least two intersections")
        self._network = network
        self._rng = ensure_rng(seed)
        self._router = Router(network, weight="time")
        self._weights = self._gravity_weights(centre_bias)
        # free-flow traversal seconds per segment
        self._travel = (
            network.segment_lengths() / network.segment_speed_limits()
        ).tolist()

    def _gravity_weights(self, bias: float) -> np.ndarray:
        """Sampling weight per intersection, higher toward the centroid."""
        xs, ys = self._network.intersection_coordinates()
        cx, cy = xs.mean(), ys.mean()
        dist = np.hypot(xs - cx, ys - cy)
        scale = dist.max() if dist.max() > 0 else 1.0
        weights = np.exp(-bias * dist / scale)
        return weights / weights.sum()

    def generate_trajectories(
        self, n_vehicles: int, n_timestamps: int, depart_horizon: float = 0.9
    ) -> List[Trajectory]:
        """Sample ``n_vehicles`` routed trips.

        Departure times are spread uniformly over the first
        ``depart_horizon`` fraction of the horizon so the network fills
        up and stays loaded, mimicking the MNTG behaviour of
        continuously injected vehicles.
        """
        if n_vehicles < 1:
            raise ValueError(f"n_vehicles must be positive, got {n_vehicles}")
        if n_timestamps < 1:
            raise ValueError(f"n_timestamps must be positive, got {n_timestamps}")
        if not 0.0 < depart_horizon <= 1.0:
            raise ValueError(
                f"depart_horizon must be in (0, 1], got {depart_horizon}"
            )

        n = self._network.n_intersections
        ids = np.arange(n)
        trips: List[Trajectory] = []
        max_depart = max(1, int(depart_horizon * n_timestamps))
        attempts = 0
        while len(trips) < n_vehicles:
            attempts += 1
            if attempts > 20 * n_vehicles:
                raise DataError(
                    "could not route enough trips; network may be poorly connected"
                )
            origin = int(self._rng.choice(ids, p=self._weights))
            dest = int(self._rng.choice(ids, p=self._weights))
            if origin == dest:
                continue
            routed = self._router.shortest_path(origin, dest)
            if routed is None or not routed[0]:
                continue
            depart = int(self._rng.integers(0, max_depart))
            trips.append(Trajectory(len(trips), depart, routed[0]))
        return trips

    def positions_at(
        self, trips: Sequence[Trajectory], t: int, dt: float = 30.0
    ) -> List[Tuple[int, Point]]:
        """Planar positions ``(vehicle_id, point)`` of active vehicles at time ``t``.

        Each vehicle advances along its route at the speed limit of the
        segment it is on; vehicles that finished their route are absent.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        out: List[Tuple[int, Point]] = []
        for trip in trips:
            pos = self._position_on_route(trip, t, dt)
            if pos is not None:
                out.append((trip.vehicle_id, pos))
        return out

    def occupancy_at(
        self, trips: Sequence[Trajectory], t: int, dt: float = 30.0
    ) -> Dict[int, int]:
        """Vehicle count per segment id at time ``t`` (ground-truth matching).

        Equivalent to map-matching :meth:`positions_at` with a perfect
        matcher; used for fast density computation on large networks.
        """
        counts: Dict[int, int] = {}
        for trip in trips:
            sid = self._segment_on_route(trip, t, dt)
            if sid is not None:
                counts[sid] = counts.get(sid, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Kinematics along a route
    # ------------------------------------------------------------------
    def _route_progress(
        self, trip: Trajectory, t: int, dt: float
    ) -> Optional[Tuple[int, float]]:
        """(segment position in route, fraction along it) at time ``t``."""
        if t < trip.depart_time:
            return None
        elapsed = (t - trip.depart_time) * dt
        for pos, sid in enumerate(trip.segments):
            travel = self._travel[sid]
            if elapsed < travel:
                return pos, elapsed / travel
            elapsed -= travel
        return None  # arrived

    def _segment_on_route(
        self, trip: Trajectory, t: int, dt: float
    ) -> Optional[int]:
        progress = self._route_progress(trip, t, dt)
        if progress is None:
            return None
        return trip.segments[progress[0]]

    def _position_on_route(
        self, trip: Trajectory, t: int, dt: float
    ) -> Optional[Point]:
        progress = self._route_progress(trip, t, dt)
        if progress is None:
            return None
        pos, fraction = progress
        a, b = self._network.segment_endpoints(trip.segments[pos])
        return interpolate(a, b, fraction)
