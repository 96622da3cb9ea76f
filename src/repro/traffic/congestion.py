"""Congestion-aware travel times and routing.

The paper's motivation — different regions need different management —
implies routing should react to congestion. This module provides the
standard Greenshields speed-density relation::

    v(rho) = v_free * max(1 - rho / rho_jam, v_min_fraction)

and a router whose edge costs are congested travel times, so paths
detour around jammed regions. Related to the adaptive fastest-path
work the paper cites (Gonzalez et al., VLDB 2007).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.network.model import RoadNetwork
from repro.traffic.routing import Router

JAM_DENSITY_PER_LANE = 0.15  # veh/m/lane
MIN_SPEED_FRACTION = 0.05  # crawl speed at/over jam, as fraction of free flow


def congested_speeds(
    network: RoadNetwork,
    densities: Sequence[float],
    jam_density: float = JAM_DENSITY_PER_LANE,
    min_fraction: float = MIN_SPEED_FRACTION,
) -> np.ndarray:
    """Greenshields speed per segment given current densities.

    Parameters
    ----------
    network:
        The road network (provides free-flow speeds and lane counts).
    densities:
        Current densities in vehicles/metre (all lanes combined).
    jam_density:
        Jam density per lane (veh/m/lane).
    min_fraction:
        Floor on the speed as a fraction of free flow, so travel times
        stay finite in fully jammed segments.

    Returns
    -------
    numpy.ndarray: speed in m/s per segment id.
    """
    dens = np.asarray(densities, dtype=float)
    if dens.shape != (network.n_segments,):
        raise DataError(
            f"densities must have shape ({network.n_segments},), got {dens.shape}"
        )
    if jam_density <= 0:
        raise DataError(f"jam_density must be positive, got {jam_density}")
    if not 0.0 < min_fraction <= 1.0:
        raise DataError(f"min_fraction must be in (0, 1], got {min_fraction}")

    per_lane = dens / network.segment_lanes()
    fraction = np.maximum(1.0 - per_lane / jam_density, min_fraction)
    return network.segment_speed_limits() * fraction


def congested_travel_times(
    network: RoadNetwork,
    densities: Sequence[float],
    jam_density: float = JAM_DENSITY_PER_LANE,
    min_fraction: float = MIN_SPEED_FRACTION,
) -> np.ndarray:
    """Travel time in seconds per segment under current densities."""
    speeds = congested_speeds(
        network, densities, jam_density=jam_density, min_fraction=min_fraction
    )
    return network.segment_lengths() / speeds


class CongestionAwareRouter:
    """Dijkstra router with congested travel times as edge costs.

    Rebuild (or :meth:`update`) whenever densities change; queries are
    then as fast as the free-flow router.
    """

    def __init__(
        self,
        network: RoadNetwork,
        densities: Sequence[float],
        jam_density: float = JAM_DENSITY_PER_LANE,
        min_fraction: float = MIN_SPEED_FRACTION,
    ) -> None:
        self._network = network
        self._jam = jam_density
        self._min_fraction = min_fraction
        self._router: Optional[Router] = None
        self.update(densities)

    def update(self, densities: Sequence[float]) -> None:
        """Recompute edge costs for new densities."""
        times = congested_travel_times(
            self._network,
            densities,
            jam_density=self._jam,
            min_fraction=self._min_fraction,
        )
        router = Router(self._network, weight="time")
        # replace the per-edge costs in the router's adjacency lists
        for u, triples in enumerate(router._adj):
            router._adj[u] = [
                (v, sid, float(times[sid])) for (v, sid, __) in triples
            ]
        self._router = router

    def shortest_path(
        self, source: int, target: int
    ) -> Optional[Tuple[List[int], float]]:
        """Fastest path under current congestion; cost in seconds."""
        return self._router.shortest_path(source, target)

    def shortest_path_tree(self, source: int) -> np.ndarray:
        """Congested travel time from ``source`` to every intersection."""
        return self._router.shortest_path_tree(source)
