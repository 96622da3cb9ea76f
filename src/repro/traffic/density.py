"""Map-matching and density computation.

The paper used "a self-designed program ... to map [vehicle] positions
to corresponding road segments, and compute the traffic density of
road segments (in terms of vehicles/metre)". :class:`DensityMapper`
reproduces that program: it snaps planar vehicle positions to the
nearest road segment using a uniform grid spatial index, counts
vehicles per segment, and divides by segment length.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.network.geometry import Point
from repro.network.model import RoadNetwork


def _point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point (px, py) to the line segment (a, b)."""
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class DensityMapper:
    """Snap vehicle positions to segments and compute densities.

    Parameters
    ----------
    network:
        The road network to match against.
    cell_size:
        Grid-index cell size in metres. Defaults to roughly the median
        segment length, which keeps candidate lists short.
    """

    def __init__(self, network: RoadNetwork, cell_size: float = 0.0) -> None:
        if network.n_segments == 0:
            raise DataError("cannot build a DensityMapper over an empty network")
        self._network = network
        if cell_size <= 0:
            cell_size = max(25.0, float(np.median(network.segment_lengths())))
        self._cell = float(cell_size)
        self._index: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._coords = np.empty((network.n_segments, 4), dtype=float)
        for sid in range(network.n_segments):
            a, b = network.segment_endpoints(sid)
            self._coords[sid] = (a.x, a.y, b.x, b.y)
            for cell in self._cells_covering(a, b):
                self._index[cell].append(sid)

    def _cells_covering(self, a: Point, b: Point) -> Iterable[Tuple[int, int]]:
        """Grid cells intersecting the bounding box of segment (a, b)."""
        x_lo = int(math.floor(min(a.x, b.x) / self._cell))
        x_hi = int(math.floor(max(a.x, b.x) / self._cell))
        y_lo = int(math.floor(min(a.y, b.y) / self._cell))
        y_hi = int(math.floor(max(a.y, b.y) / self._cell))
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                yield (cx, cy)

    def match(self, position: Point) -> int:
        """Id of the segment nearest to ``position``.

        Searches the position's grid cell and grows the search ring
        until a candidate is found, then returns the true nearest among
        candidates (exact point-to-segment distance).
        """
        cx = int(math.floor(position.x / self._cell))
        cy = int(math.floor(position.y / self._cell))
        for radius in range(0, 64):
            candidates: List[int] = []
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    if max(abs(dx), abs(dy)) != radius:
                        continue  # only the new ring
                    candidates.extend(self._index.get((cx + dx, cy + dy), ()))
            if candidates:
                best, best_d = -1, float("inf")
                for sid in set(candidates):
                    ax, ay, bx, by = self._coords[sid]
                    d = _point_segment_distance(position.x, position.y, ax, ay, bx, by)
                    if d < best_d:
                        best, best_d = sid, d
                return best
        raise DataError(f"no segment found near position ({position.x}, {position.y})")

    def match_many(self, positions: Sequence[Point]) -> np.ndarray:
        """Vector of matched segment ids for ``positions``."""
        return np.array([self.match(p) for p in positions], dtype=int)

    def densities(self, positions: Sequence[Point]) -> np.ndarray:
        """Per-segment density (vehicles/metre) from vehicle positions."""
        counts = np.zeros(self._network.n_segments, dtype=int)
        for p in positions:
            counts[self.match(p)] += 1
        return densities_from_counts(self._network, counts)


def densities_from_counts(network: RoadNetwork, counts: Sequence[int]) -> np.ndarray:
    """Convert per-segment vehicle counts to densities (vehicles/metre)."""
    arr = np.asarray(counts, dtype=float)
    if arr.shape != (network.n_segments,):
        raise DataError(
            f"counts must have shape ({network.n_segments},), got {arr.shape}"
        )
    if arr.size and arr.min() < 0:
        raise DataError("counts must be non-negative")
    return arr / network.segment_lengths()
