"""Origin-destination demand modelling.

The MNTG-style generator samples trips ad hoc; real studies start from
an **OD matrix** — expected trips per (origin, destination) zone pair
over a period. This module provides:

* :class:`ODMatrix` — a zone-level demand table with validation;
* :func:`gravity_model` — the classic doubly-informed gravity model
  ``T_ij = a_i b_j P_i A_j f(c_ij)`` with an exponential deterrence
  function, balanced by iterative proportional fitting (Furness);
* :func:`trips_from_od` — realise an OD matrix into routed
  :class:`repro.traffic.mntg.Trajectory` objects ready for the
  microsimulator.

Zones are sets of intersections (e.g. the partitions themselves, which
enables partition-to-partition demand analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import DataError, NetworkError
from repro.network.model import RoadNetwork
from repro.traffic.mntg import Trajectory
from repro.traffic.routing import Router
from repro.util.rng import RngLike, ensure_rng


@dataclass
class ODMatrix:
    """Zone-level origin-destination demand.

    Attributes
    ----------
    zones:
        For each zone, the list of member intersection ids.
    trips:
        Matrix of shape (n_zones, n_zones); ``trips[i, j]`` is the
        expected number of trips from zone i to zone j per period.
    """

    zones: List[List[int]]
    trips: np.ndarray

    def __post_init__(self) -> None:
        self.trips = np.asarray(self.trips, dtype=float)
        n = len(self.zones)
        if self.trips.shape != (n, n):
            raise DataError(
                f"trips must have shape ({n}, {n}), got {self.trips.shape}"
            )
        if self.trips.size and self.trips.min() < 0:
            raise DataError("trip counts must be non-negative")
        if any(len(z) == 0 for z in self.zones):
            raise DataError("every zone needs at least one intersection")

    @property
    def n_zones(self) -> int:
        """Number of zones."""
        return len(self.zones)

    def total_trips(self) -> float:
        """Total expected trips per period."""
        return float(self.trips.sum())

    def productions(self) -> np.ndarray:
        """Trips produced per zone (row sums)."""
        return self.trips.sum(axis=1)

    def attractions(self) -> np.ndarray:
        """Trips attracted per zone (column sums)."""
        return self.trips.sum(axis=0)


def zone_centroids(network: RoadNetwork, zones: Sequence[Sequence[int]]) -> np.ndarray:
    """(x, y) centroid per zone from its member intersections."""
    xs, ys = network.intersection_coordinates()
    n = network.n_intersections
    out = np.empty((len(zones), 2))
    for i, zone in enumerate(zones):
        ids = np.array(zone, dtype=np.int64)
        bad = ids[(ids < -n) | (ids >= n)]
        if bad.size:
            raise NetworkError(f"no intersection with id {int(bad[0])}")
        out[i] = (float(np.mean(xs[ids])), float(np.mean(ys[ids])))
    return out


def gravity_model(
    network: RoadNetwork,
    zones: Sequence[Sequence[int]],
    productions: Sequence[float],
    attractions: Sequence[float],
    beta: float = 1.0e-3,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> ODMatrix:
    """Doubly-constrained gravity model with exponential deterrence.

    ``T_ij ∝ P_i A_j exp(-beta c_ij)`` with ``c_ij`` the centroid
    distance in metres, balanced so row sums match ``productions`` and
    column sums match ``attractions`` (Furness iterations).

    Parameters
    ----------
    network, zones:
        The network and zone membership (intersection ids per zone).
    productions, attractions:
        Target trips produced/attracted per zone; their totals must
        match (within 1%).
    beta:
        Deterrence rate per metre (1e-3 = strong distance decay over
        kilometres).
    max_iter, tol:
        Furness iteration controls.
    """
    prods = np.asarray(productions, dtype=float)
    attrs = np.asarray(attractions, dtype=float)
    n = len(zones)
    if prods.shape != (n,) or attrs.shape != (n,):
        raise DataError(
            f"productions/attractions must have shape ({n},), got "
            f"{prods.shape}/{attrs.shape}"
        )
    if prods.min() < 0 or attrs.min() < 0:
        raise DataError("productions/attractions must be non-negative")
    if beta < 0:
        raise DataError(f"beta must be non-negative, got {beta}")
    total_p, total_a = prods.sum(), attrs.sum()
    if total_p == 0:
        raise DataError("total production must be positive")
    if abs(total_p - total_a) > 0.01 * total_p:
        raise DataError(
            f"production total {total_p} and attraction total {total_a} "
            "must match (within 1%)"
        )

    centroids = zone_centroids(network, zones)
    diff = centroids[:, None, :] - centroids[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    deterrence = np.exp(-beta * cost)

    trips = np.outer(prods, attrs) * deterrence
    # Furness balancing
    for __ in range(max_iter):
        row_sums = trips.sum(axis=1)
        row_factors = np.divide(
            prods, row_sums, out=np.zeros_like(prods), where=row_sums > 0
        )
        trips *= row_factors[:, None]
        col_sums = trips.sum(axis=0)
        col_factors = np.divide(
            attrs, col_sums, out=np.zeros_like(attrs), where=col_sums > 0
        )
        trips *= col_factors[None, :]
        gap = np.abs(trips.sum(axis=1) - prods).max()
        if gap <= tol * max(total_p, 1.0):
            break

    return ODMatrix(zones=[list(z) for z in zones], trips=trips)


def trips_from_od(
    network: RoadNetwork,
    od: ODMatrix,
    n_timestamps: int,
    depart_horizon: float = 0.9,
    seed: RngLike = None,
) -> List[Trajectory]:
    """Realise an OD matrix into routed trips.

    Trip counts per zone pair are sampled Poisson around the expected
    values; each trip picks uniform random intersections inside its
    origin/destination zones and routes by free-flow shortest path.
    Unroutable trips (no path) are dropped with a note in the count.
    """
    if n_timestamps < 1:
        raise DataError(f"n_timestamps must be positive, got {n_timestamps}")
    if not 0.0 < depart_horizon <= 1.0:
        raise DataError(
            f"depart_horizon must be in (0, 1], got {depart_horizon}"
        )
    rng = ensure_rng(seed)
    router = Router(network, weight="time")
    max_depart = max(1, int(depart_horizon * n_timestamps))

    trips: List[Trajectory] = []
    counts = rng.poisson(od.trips)
    for i in range(od.n_zones):
        for j in range(od.n_zones):
            for __ in range(int(counts[i, j])):
                origin = int(rng.choice(od.zones[i]))
                dest = int(rng.choice(od.zones[j]))
                if origin == dest:
                    continue
                routed = router.shortest_path(origin, dest)
                if routed is None or not routed[0]:
                    continue
                depart = int(rng.integers(0, max_depart))
                trips.append(Trajectory(len(trips), depart, routed[0]))
    return trips
