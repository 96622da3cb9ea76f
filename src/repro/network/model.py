"""Road network model (Definition 1 of the paper).

A :class:`RoadNetwork` is a set of :class:`Intersection` nodes joined
by **directed** :class:`RoadSegment` links. Each segment carries a
traffic density (vehicles/metre). Two-way streets are represented as
two opposite segments sharing the same pair of intersections, matching
the paper's treatment of the two traffic directions as separate road
segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NetworkError
from repro.network.geometry import Point


@dataclass(frozen=True)
class Intersection:
    """An intersection point ι (node of the real road network)."""

    id: int
    location: Point

    def __post_init__(self) -> None:
        if self.id < 0:
            raise NetworkError(f"intersection id must be non-negative, got {self.id}")


@dataclass
class RoadSegment:
    """A directed road segment r with an associated traffic density.

    Attributes
    ----------
    id:
        Dense integer id; doubles as the node id of the dual road graph.
    source, target:
        Intersection ids the segment runs from / to.
    length:
        Segment length in metres (must be positive).
    density:
        Traffic density ``r.d`` in vehicles/metre (non-negative).
    lanes:
        Number of lanes; used by the traffic simulator for capacity.
    speed_limit:
        Free-flow speed in metres/second; used by routing and simulation.
    name:
        Optional human-readable street name.
    """

    id: int
    source: int
    target: int
    length: float
    density: float = 0.0
    lanes: int = 1
    speed_limit: float = 13.9  # ~50 km/h urban default
    name: str = ""

    def __post_init__(self) -> None:
        if self.id < 0:
            raise NetworkError(f"segment id must be non-negative, got {self.id}")
        if self.source == self.target:
            raise NetworkError(f"segment {self.id} is a self-loop at {self.source}")
        if self.length <= 0:
            raise NetworkError(f"segment {self.id} must have positive length")
        if self.density < 0:
            raise NetworkError(f"segment {self.id} has negative density")
        if self.lanes < 1:
            raise NetworkError(f"segment {self.id} must have at least one lane")
        if self.speed_limit <= 0:
            raise NetworkError(f"segment {self.id} must have positive speed limit")

    @property
    def capacity(self) -> float:
        """Jam capacity in vehicles: length x lanes x jam density.

        Uses the conventional urban jam density of 0.15 veh/m/lane
        (one vehicle per ~6.7 m of lane).
        """
        return self.length * self.lanes * 0.15


class RoadNetwork:
    """A directed urban road network N = (I, R).

    Parameters
    ----------
    intersections:
        Iterable of :class:`Intersection`; ids must be dense 0..n-1.
    segments:
        Iterable of :class:`RoadSegment`; ids must be dense 0..m-1 and
        endpoints must reference existing intersections.
    """

    def __init__(
        self,
        intersections: Iterable[Intersection],
        segments: Iterable[RoadSegment],
    ) -> None:
        self._intersections: List[Intersection] = sorted(
            intersections, key=attrgetter("id")
        )
        self._segments: List[RoadSegment] = sorted(segments, key=attrgetter("id"))
        n = len(self._intersections)
        m = len(self._segments)

        ids = [inter.id for inter in self._intersections]
        if ids != list(range(n)):
            pos = next(p for p, iid in enumerate(ids) if iid != p)
            raise NetworkError(f"intersection ids must be dense 0..n-1; missing id {pos}")

        # The topology is fixed from here on: the endpoint and
        # coordinate arrays below are built once and never refreshed.
        self._source = np.fromiter(
            (seg.source for seg in self._segments), dtype=np.int64, count=m
        )
        self._target = np.fromiter(
            (seg.target for seg in self._segments), dtype=np.int64, count=m
        )
        bad_id = np.flatnonzero(
            np.fromiter((seg.id for seg in self._segments), dtype=np.int64, count=m)
            != np.arange(m)
        )
        bad_end = np.flatnonzero(
            (self._source < 0) | (self._source >= n) | (self._target < 0) | (self._target >= n)
        )
        if bad_id.size and (not bad_end.size or bad_id[0] <= bad_end[0]):
            raise NetworkError(
                f"segment ids must be dense 0..m-1; missing id {int(bad_id[0])}"
            )
        if bad_end.size:
            seg = self._segments[int(bad_end[0])]
            raise NetworkError(
                f"segment {seg.id} references unknown intersection "
                f"({seg.source} -> {seg.target}, n={n})"
            )
        for arr in (self._source, self._target):
            arr.flags.writeable = False
        self._x = np.fromiter(
            (inter.location.x for inter in self._intersections), dtype=float, count=n
        )
        self._y = np.fromiter(
            (inter.location.y for inter in self._intersections), dtype=float, count=n
        )

        # per-intersection segment tables, built on first use
        self._out: Optional[Dict[int, Tuple[int, ...]]] = None
        self._in: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def n_intersections(self) -> int:
        """Number of intersection points |I|."""
        return len(self._intersections)

    @property
    def n_segments(self) -> int:
        """Number of directed road segments |R|."""
        return len(self._segments)

    @property
    def intersections(self) -> Sequence[Intersection]:
        """The intersections ordered by id."""
        return tuple(self._intersections)

    @property
    def segments(self) -> Sequence[RoadSegment]:
        """The road segments ordered by id."""
        return tuple(self._segments)

    def intersection(self, iid: int) -> Intersection:
        """Intersection with id ``iid``."""
        try:
            return self._intersections[iid]
        except IndexError:
            raise NetworkError(f"no intersection with id {iid}") from None

    def segment(self, sid: int) -> RoadSegment:
        """Road segment with id ``sid``."""
        try:
            return self._segments[sid]
        except IndexError:
            raise NetworkError(f"no segment with id {sid}") from None

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def _segments_by(self, endpoint: np.ndarray) -> Dict[int, Tuple[int, ...]]:
        """Segment ids (ascending) per intersection id of ``endpoint``."""
        order = np.argsort(endpoint, kind="stable").tolist()
        bounds = np.zeros(self.n_intersections + 1, dtype=np.int64)
        np.cumsum(np.bincount(endpoint, minlength=self.n_intersections), out=bounds[1:])
        edges = bounds.tolist()
        return {
            iid: tuple(order[edges[iid]:edges[iid + 1]])
            for iid in range(self.n_intersections)
        }

    def outgoing(self, iid: int) -> Sequence[int]:
        """Ids of segments leaving intersection ``iid``."""
        if self._out is None:
            self._out = self._segments_by(self._source)
        if iid not in self._out:
            raise NetworkError(f"no intersection with id {iid}")
        return self._out[iid]

    def incoming(self, iid: int) -> Sequence[int]:
        """Ids of segments arriving at intersection ``iid``."""
        if self._in is None:
            self._in = self._segments_by(self._target)
        if iid not in self._in:
            raise NetworkError(f"no intersection with id {iid}")
        return self._in[iid]

    def segment_endpoints(self, sid: int) -> Tuple[Point, Point]:
        """Source and target locations of segment ``sid``."""
        seg = self.segment(sid)
        return (
            self._intersections[seg.source].location,
            self._intersections[seg.target].location,
        )

    def segment_midpoint(self, sid: int) -> Point:
        """Midpoint of segment ``sid`` (used by spatial metrics)."""
        a, b = self.segment_endpoints(sid)
        return a.midpoint(b)

    def segment_endpoint_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source and target intersection ids of every segment, as two
        read-only int64 arrays indexed by segment id."""
        return self._source, self._target

    def segment_midpoints(self) -> np.ndarray:
        """Midpoint ``(x, y)`` of every segment, shape ``(m, 2)``.

        Row ``sid`` equals :meth:`segment_midpoint` ``(sid)``: halving a
        sum is exact, so ``0.5 * (a + b)`` and ``(a + b) / 2.0`` agree.
        """
        src, tgt = self._source, self._target
        return np.column_stack(
            (0.5 * (self._x[src] + self._x[tgt]), 0.5 * (self._y[src] + self._y[tgt]))
        )

    # ------------------------------------------------------------------
    # Densities
    # ------------------------------------------------------------------
    def densities(self) -> np.ndarray:
        """Vector of per-segment traffic densities indexed by segment id."""
        return np.array([s.density for s in self._segments], dtype=float)

    def set_densities(self, densities: Sequence[float]) -> None:
        """Replace every segment's density (vector indexed by segment id)."""
        arr = np.asarray(densities, dtype=float)
        if arr.shape != (self.n_segments,):
            raise NetworkError(
                f"densities must have shape ({self.n_segments},), got {arr.shape}"
            )
        if arr.size and arr.min() < 0:
            raise NetworkError("densities must be non-negative")
        for seg, d in zip(self._segments, arr):
            seg.density = float(d)

    def total_length(self) -> float:
        """Sum of all segment lengths in metres."""
        return float(sum(s.length for s in self._segments))

    def area_km2(self) -> float:
        """Area of the intersection bounding box in square kilometres."""
        if not self._intersections:
            return 0.0
        xs = [i.location.x for i in self._intersections]
        ys = [i.location.y for i in self._intersections]
        return (max(xs) - min(xs)) * (max(ys) - min(ys)) / 1e6

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(n_intersections={self.n_intersections}, "
            f"n_segments={self.n_segments})"
        )
