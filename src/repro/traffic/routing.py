"""Shortest-path routing on directed road networks.

Routes are computed over intersections with Dijkstra's algorithm,
weighted by free-flow travel time (length / speed limit). The router
caches the network's adjacency in plain arrays so repeated queries
(tens of thousands of trips in the traffic generator) stay fast.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError, NetworkError
from repro.network.model import RoadNetwork


class Router:
    """Dijkstra router over a :class:`RoadNetwork`.

    Parameters
    ----------
    network:
        The road network to route on.
    weight:
        ``"time"`` (default) weights each segment by free-flow travel
        time; ``"length"`` weights by metres.
    """

    def __init__(self, network: RoadNetwork, weight: str = "time") -> None:
        if weight not in ("time", "length"):
            raise ValueError(f"weight must be 'time' or 'length', got {weight!r}")
        self._network = network
        self._n = network.n_intersections
        # adjacency: for each intersection, list of (neighbor, segment_id, cost)
        self._adj: List[List[Tuple[int, int, float]]] = [[] for __ in range(self._n)]
        source, target = network.segment_endpoint_ids()
        costs = network.segment_lengths()
        if weight == "time":
            costs = costs / network.segment_speed_limits()
        for sid, (u, v, cost) in enumerate(
            zip(source.tolist(), target.tolist(), costs.tolist())
        ):
            self._adj[u].append((v, sid, cost))

    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    def shortest_path(
        self, source: int, target: int
    ) -> Optional[Tuple[List[int], float]]:
        """Shortest path from intersection ``source`` to ``target``.

        Returns
        -------
        (segment_ids, cost) or None:
            The sequence of segment ids traversed and the total cost,
            or ``None`` when ``target`` is unreachable.
        """
        if not (0 <= source < self._n and 0 <= target < self._n):
            raise NetworkError(
                f"source/target out of range: ({source}, {target}), n={self._n}"
            )
        if source == target:
            return [], 0.0

        dist = np.full(self._n, np.inf)
        dist[source] = 0.0
        prev_seg = np.full(self._n, -1, dtype=int)
        prev_node = np.full(self._n, -1, dtype=int)
        done = np.zeros(self._n, dtype=bool)
        heap: List[Tuple[float, int]] = [(0.0, source)]

        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            if u == target:
                break
            done[u] = True
            for v, sid, cost in self._adj[u]:
                nd = d + cost
                if nd < dist[v]:
                    dist[v] = nd
                    prev_seg[v] = sid
                    prev_node[v] = u
                    heapq.heappush(heap, (nd, v))

        if not np.isfinite(dist[target]):
            return None
        path: List[int] = []
        node = target
        while node != source:
            path.append(int(prev_seg[node]))
            node = int(prev_node[node])
        path.reverse()
        return path, float(dist[target])

    def shortest_path_tree(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every intersection (inf when unreachable)."""
        if not 0 <= source < self._n:
            raise NetworkError(f"source {source} out of range, n={self._n}")
        dist = np.full(self._n, np.inf)
        dist[source] = 0.0
        done = np.zeros(self._n, dtype=bool)
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, __, cost in self._adj[u]:
                nd = d + cost
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist


def shortest_path(
    network: RoadNetwork, source: int, target: int, weight: str = "time"
) -> Optional[Tuple[List[int], float]]:
    """One-shot convenience wrapper around :class:`Router`."""
    return Router(network, weight=weight).shortest_path(source, target)
