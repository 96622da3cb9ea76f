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

# Segment checks shared by RoadSegment and RoadNetwork.from_arrays.
_SELF_LOOP = "segment {sid} is a self-loop at {source}"
_NONPOSITIVE_LENGTH = "segment {sid} must have positive length"
_NONPOSITIVE_SPEED = "segment {sid} must have positive speed limit"


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
            raise NetworkError(_SELF_LOOP.format(sid=self.id, source=self.source))
        if self.length <= 0:
            raise NetworkError(_NONPOSITIVE_LENGTH.format(sid=self.id))
        if self.density < 0:
            raise NetworkError(f"segment {self.id} has negative density")
        if self.lanes < 1:
            raise NetworkError(f"segment {self.id} must have at least one lane")
        if self.speed_limit <= 0:
            raise NetworkError(_NONPOSITIVE_SPEED.format(sid=self.id))

    @property
    def capacity(self) -> float:
        """Jam capacity in vehicles: length x lanes x jam density.

        Uses the conventional urban jam density of 0.15 veh/m/lane
        (one vehicle per ~6.7 m of lane).
        """
        return self.length * self.lanes * 0.15


class RoadNetwork:
    """A directed urban road network N = (I, R).

    The network is held as arrays: intersection coordinates, segment
    endpoints, lengths, lanes and speed limits, and one density vector.
    The :class:`Intersection` and :class:`RoadSegment` objects are
    built the first time :attr:`intersections`, :meth:`intersection`,
    :attr:`segments` or :meth:`segment` is read; everything else reads
    the arrays. :meth:`set_densities` is the only density writer.

    Parameters
    ----------
    intersections:
        Iterable of :class:`Intersection`; ids must be dense 0..n-1.
    segments:
        Iterable of :class:`RoadSegment`; ids must be dense 0..m-1 and
        endpoints must reference existing intersections.

    :meth:`from_arrays` builds a network from the arrays directly.
    """

    def __init__(
        self,
        intersections: Iterable[Intersection],
        segments: Iterable[RoadSegment],
    ) -> None:
        inters: List[Intersection] = sorted(intersections, key=attrgetter("id"))
        segs: List[RoadSegment] = sorted(segments, key=attrgetter("id"))
        n = len(inters)
        m = len(segs)

        ids = [inter.id for inter in inters]
        if ids != list(range(n)):
            pos = next(p for p, iid in enumerate(ids) if iid != p)
            raise NetworkError(f"intersection ids must be dense 0..n-1; missing id {pos}")

        def field(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), segs), dtype=dtype, count=m)

        source = field("source", np.int64)
        target = field("target", np.int64)
        bad_id = np.flatnonzero(field("id", np.int64) != np.arange(m))
        # the first failing segment decides: an endpoint before the first
        # id gap (where segment id == index), else the gap
        dense = int(bad_id[0]) if bad_id.size else m
        _check_endpoints(source[:dense], target[:dense], n)
        if bad_id.size:
            raise NetworkError(f"segment ids must be dense 0..m-1; missing id {dense}")
        self._set_arrays(
            _coordinates([inter.location.x for inter in inters]),
            _coordinates([inter.location.y for inter in inters]),
            source,
            target,
            field("length", float),
            field("lanes", np.int64),
            field("speed_limit", float),
            field("density", float),
        )
        self._intersections: Optional[List[Intersection]] = inters
        self._segments: Optional[List[RoadSegment]] = segs

    @classmethod
    def from_arrays(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        source: Sequence[int],
        target: Sequence[int],
        length: Sequence[float],
        *,
        speed_limit: Optional[Sequence[float]] = None,
    ) -> "RoadNetwork":
        """A network from per-intersection and per-segment arrays.

        Intersection ``i`` sits at ``(xs[i], ys[i])``; segment ``k``
        runs ``source[k] -> target[k]``. ``speed_limit`` defaults to the
        :class:`RoadSegment` default (13.9); every segment gets that
        class's default lanes (1) and density (0.0). Integer coordinates
        stay integers in the built :class:`Point` objects, as when the
        objects are given.

        Runs the checks of :class:`RoadSegment` and of the object
        constructor and raises the :class:`NetworkError` the object
        path raises first: the lowest segment id failing any check
        (self-loop, length, speed limit, in that order), then the first
        endpoint out of range.
        """
        # copies: the network freezes its topology arrays
        xs, ys = _coordinates(xs), _coordinates(ys)
        source = np.array(source, dtype=np.int64)
        target = np.array(target, dtype=np.int64)
        m = source.size
        length = np.array(length, dtype=float)
        speed_limit = (
            np.full(m, 13.9) if speed_limit is None else np.array(speed_limit, dtype=float)
        )
        if xs.ndim != 1 or ys.shape != xs.shape:
            raise NetworkError(
                f"xs and ys must be 1-D of one length, got {xs.shape} and {ys.shape}"
            )
        columns = dict(source=source, target=target, length=length, speed_limit=speed_limit)
        for name, arr in columns.items():
            if arr.shape != (m,):
                raise NetworkError(f"{name} must have shape ({m},), got {arr.shape}")

        checks = (
            (source == target, _SELF_LOOP),
            (length <= 0, _NONPOSITIVE_LENGTH),
            (speed_limit <= 0, _NONPOSITIVE_SPEED),
        )
        failures = [
            (int(np.argmax(bad)), rank, message)
            for rank, (bad, message) in enumerate(checks)
            if bad.any()
        ]
        if failures:
            sid, __, message = min(failures)
            raise NetworkError(message.format(sid=sid, source=int(source[sid])))
        _check_endpoints(source, target, xs.size)

        net = cls.__new__(cls)
        net._set_arrays(
            xs, ys, source, target, length, np.ones(m, dtype=np.int64), speed_limit, np.zeros(m)
        )
        net._intersections = None
        net._segments = None
        return net

    def _set_arrays(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        source: np.ndarray,
        target: np.ndarray,
        length: np.ndarray,
        lanes: np.ndarray,
        speed_limit: np.ndarray,
        density: np.ndarray,
    ) -> None:
        # The topology is fixed from here on; only the densities change.
        self._x, self._y = xs, ys
        self._source, self._target = source, target
        self._length, self._lanes, self._speed_limit = length, lanes, speed_limit
        for arr in (xs, ys, source, target, length, lanes, speed_limit):
            arr.flags.writeable = False
        self._density = density
        # per-intersection segment tables, built on first use
        self._out: Optional[Dict[int, Tuple[int, ...]]] = None
        self._in: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def n_intersections(self) -> int:
        """Number of intersection points |I|."""
        return self._x.size

    @property
    def n_segments(self) -> int:
        """Number of directed road segments |R|."""
        return self._source.size

    def _intersection_objects(self) -> List[Intersection]:
        if self._intersections is None:
            self._intersections = list(
                map(
                    Intersection,
                    range(self.n_intersections),
                    map(Point, self._x.tolist(), self._y.tolist()),
                )
            )
        return self._intersections

    def _segment_objects(self) -> List[RoadSegment]:
        if self._segments is None:
            # positional: id, source, target, length, density, lanes, speed_limit
            self._segments = list(
                map(
                    RoadSegment,
                    range(self.n_segments),
                    self._source.tolist(),
                    self._target.tolist(),
                    self._length.tolist(),
                    self._density.tolist(),
                    self._lanes.tolist(),
                    self._speed_limit.tolist(),
                )
            )
        return self._segments

    @property
    def intersections(self) -> Sequence[Intersection]:
        """The intersections ordered by id (built on first read)."""
        return tuple(self._intersection_objects())

    @property
    def segments(self) -> Sequence[RoadSegment]:
        """The road segments ordered by id (built on first read).

        Assigning ``.density`` on a returned segment does not reach
        :meth:`densities`; use :meth:`set_densities`.
        """
        return tuple(self._segment_objects())

    def intersection(self, iid: int) -> Intersection:
        """Intersection with id ``iid``."""
        try:
            return self._intersection_objects()[iid]
        except IndexError:
            raise NetworkError(f"no intersection with id {iid}") from None

    def segment(self, sid: int) -> RoadSegment:
        """Road segment with id ``sid``."""
        try:
            return self._segment_objects()[sid]
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
        if not -self.n_segments <= sid < self.n_segments:
            raise NetworkError(f"no segment with id {sid}")
        a, b = self._source[sid], self._target[sid]
        return (
            Point(self._x[a].item(), self._y[a].item()),
            Point(self._x[b].item(), self._y[b].item()),
        )

    def segment_midpoint(self, sid: int) -> Point:
        """Midpoint of segment ``sid`` (used by spatial metrics)."""
        a, b = self.segment_endpoints(sid)
        return a.midpoint(b)

    def intersection_coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """x and y of every intersection, as two read-only arrays indexed
        by intersection id (int64 when the coordinates are integers,
        float otherwise, as :class:`Point` keeps them)."""
        return self._x, self._y

    def segment_endpoint_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source and target intersection ids of every segment, as two
        read-only int64 arrays indexed by segment id."""
        return self._source, self._target

    def segment_lengths(self) -> np.ndarray:
        """Length in metres of every segment, a read-only float array
        indexed by segment id."""
        return self._length

    def segment_lanes(self) -> np.ndarray:
        """Lane count of every segment, a read-only int64 array indexed
        by segment id."""
        return self._lanes

    def segment_speed_limits(self) -> np.ndarray:
        """Speed limit in m/s of every segment, a read-only float array
        indexed by segment id."""
        return self._speed_limit

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
        """Vector of per-segment traffic densities indexed by segment id
        (a copy)."""
        return self._density.copy()

    def set_densities(self, densities: Sequence[float]) -> None:
        """Replace every segment's density (vector indexed by segment id).

        Also updates the :class:`RoadSegment` objects, if built.
        """
        arr = np.array(densities, dtype=float)
        if arr.shape != (self.n_segments,):
            raise NetworkError(
                f"densities must have shape ({self.n_segments},), got {arr.shape}"
            )
        # NaN compares False against 0, so finiteness is its own check
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NetworkError(f"densities must be finite; segment {bad} has {arr[bad]}")
        if arr.size and arr.min() < 0:
            raise NetworkError("densities must be non-negative")
        self._density = arr
        if self._segments is not None:
            for seg, d in zip(self._segments, arr.tolist()):
                seg.density = d

    def total_length(self) -> float:
        """Sum of all segment lengths in metres."""
        # summed left to right, as a loop over the segments would
        return float(sum(self._length.tolist()))

    def area_km2(self) -> float:
        """Area of the intersection bounding box in square kilometres."""
        if not self.n_intersections:
            return 0.0
        width = self._x.max().item() - self._x.min().item()
        height = self._y.max().item() - self._y.min().item()
        return width * height / 1e6

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(n_intersections={self.n_intersections}, "
            f"n_segments={self.n_segments})"
        )


def _check_endpoints(source: np.ndarray, target: np.ndarray, n: int) -> None:
    """Raise for the first segment (id == index) with an endpoint
    outside ``0..n-1``."""
    bad = np.flatnonzero((source < 0) | (source >= n) | (target < 0) | (target >= n))
    if bad.size:
        sid = int(bad[0])
        raise NetworkError(
            f"segment {sid} references unknown intersection "
            f"({int(source[sid])} -> {int(target[sid])}, n={n})"
        )


def _coordinates(values) -> np.ndarray:
    """A copy of ``values`` as a 1-D array; integer coordinates stay
    integers (as :class:`Point` keeps them), anything else is float."""
    arr = np.array(values)
    return arr if arr.dtype.kind == "i" else arr.astype(float)
