"""Read-optimised lookup structures for one partitioning epoch.

A :class:`SegmentIndex` freezes everything the serving layer needs to
answer queries about one labelling of the network:

* **segment → region** is a plain ``numpy`` array take — O(1) per id,
  vectorised for batches;
* **point → segment → region** goes through a kd-tree
  (:class:`scipy.spatial.cKDTree`) over the segment midpoints, so
  map-matched probe positions resolve in O(log m);
* **region boundary** queries come from a precomputable boundary mask
  (segments with at least one road-graph neighbour in another region —
  exactly the segments a perimeter controller meters);
* **quality metrics** (inter/intra/GDBI/ANS, Section 6.2 of the paper)
  are computed once per epoch and cached.

The midpoints, kd-tree and adjacency depend on the network alone, so
later epochs of the same network come from :meth:`SegmentIndex.relabel`,
which shares them and builds only the per-labelling arrays.

Instances are immutable by construction — every array is marked
non-writeable — which is what makes the snapshot-epoch concurrency
model of :mod:`repro.serve.snapshot` safe: readers can use an index
from any thread without locks, forever, and a published epoch can
never change under an in-flight request.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ServeError

__all__ = ["SegmentIndex"]


def _frozen(array: np.ndarray) -> np.ndarray:
    """A C-contiguous, non-writeable view of ``array``."""
    out = np.ascontiguousarray(array)
    if out is array or out.base is array:
        out = out.copy()
    out.flags.writeable = False
    return out


class SegmentIndex:
    """Immutable lookup index over one label vector.

    Parameters
    ----------
    labels:
        Region id per segment (dense non-negative ints).
    points:
        Optional ``(m, 2)`` segment midpoints — enables point lookups
        and region bounding boxes (see
        :meth:`repro.network.model.RoadNetwork.segment_midpoints`).
    adjacency:
        Optional road-graph adjacency (CSR) — enables region-boundary
        queries.
    features:
        Optional per-segment densities — enables the quality metrics.
    """

    def __init__(
        self,
        labels: Sequence[int],
        points: Optional[np.ndarray] = None,
        adjacency: Optional[sp.spmatrix] = None,
        features: Optional[Sequence[float]] = None,
    ) -> None:
        self._set_labels(labels)

        self._points: Optional[np.ndarray] = None
        self._kdtree = None
        if points is not None:
            pts = np.asarray(points, dtype=float)
            if pts.shape != (self.n_segments, 2):
                raise ServeError(
                    f"points must have shape ({self.n_segments}, 2), got {pts.shape}"
                )
            self._points = _frozen(pts)
            from scipy.spatial import cKDTree

            # built eagerly: the tree is part of the published epoch,
            # so no request ever pays (or races) the construction
            self._kdtree = cKDTree(self._points)

        self._adjacency: Optional[sp.csr_matrix] = None
        if adjacency is not None:
            adj = sp.csr_matrix(adjacency)
            if adj.shape != (self.n_segments, self.n_segments):
                raise ServeError(
                    f"adjacency must be {self.n_segments}x{self.n_segments}, "
                    f"got {adj.shape}"
                )
            self._adjacency = adj

        self._set_features(features)

    def _set_labels(self, labels: Sequence[int]) -> None:
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ServeError(f"labels must be a non-empty vector, got shape {labels.shape}")
        if labels.min() < 0:
            raise ServeError("labels must be non-negative region ids")
        self._labels = _frozen(labels.astype(np.int64, copy=False))
        self.n_segments = int(self._labels.size)
        self.k = int(self._labels.max()) + 1
        self._sizes = _frozen(np.bincount(self._labels, minlength=self.k))
        self._boundary_mask: Optional[np.ndarray] = None
        self._quality: Optional[Dict[str, float]] = None

    def _set_features(self, features: Optional[Sequence[float]]) -> None:
        self._features: Optional[np.ndarray] = None
        if features is not None:
            feats = np.asarray(features, dtype=float)
            if feats.shape != (self.n_segments,):
                raise ServeError(
                    f"features must have shape ({self.n_segments},), got {feats.shape}"
                )
            self._features = _frozen(feats)

    # ------------------------------------------------------------------
    # construction helpers
    def relabel(
        self,
        labels: Sequence[int],
        features: Optional[Sequence[float]] = None,
    ) -> "SegmentIndex":
        """A new index over the same network with new labels/densities.

        The midpoints, kd-tree and adjacency never change between
        epochs of one network, so the new index shares them with this
        one (they are read-only) instead of rebuilding the kd-tree.
        Labels and features are checked exactly as by the constructor,
        and ``labels`` must cover the same segments.
        """
        index = SegmentIndex.__new__(SegmentIndex)
        index._set_labels(labels)
        if index.n_segments != self.n_segments:
            raise ServeError(
                f"labels must have {self.n_segments} entries, got {index.n_segments}"
            )
        index._points = self._points
        index._kdtree = self._kdtree
        index._adjacency = self._adjacency
        index._set_features(features)
        return index

    @classmethod
    def from_result(
        cls,
        result,
        network=None,
        graph=None,
        features: Optional[Sequence[float]] = None,
    ) -> "SegmentIndex":
        """Index a :class:`~repro.pipeline.results.PartitioningResult`.

        ``network`` (a :class:`~repro.network.model.RoadNetwork`)
        supplies midpoints for the spatial index; ``graph`` (the dual
        road graph) supplies adjacency and — unless ``features``
        overrides them — the densities the partition was computed on.
        """
        points = network.segment_midpoints() if network is not None else None
        adjacency = graph.adjacency if graph is not None else None
        if features is None and graph is not None:
            features = graph.features
        return cls(
            result.labels, points=points, adjacency=adjacency, features=features
        )

    # ------------------------------------------------------------------
    # lookups
    @property
    def labels(self) -> np.ndarray:
        """The (non-writeable) region id per segment."""
        return self._labels

    @property
    def points(self) -> Optional[np.ndarray]:
        """The (non-writeable) segment midpoints, or None."""
        return self._points

    @property
    def has_geometry(self) -> bool:
        return self._points is not None

    def region_of(self, segment: int) -> int:
        """Region id of one segment (O(1))."""
        segment = int(segment)
        if not 0 <= segment < self.n_segments:
            raise ServeError(
                f"segment {segment} out of range [0, {self.n_segments})"
            )
        return int(self._labels[segment])

    def regions_of(self, segments: Sequence[int]) -> np.ndarray:
        """Region ids of a batch of segments (one vectorised take)."""
        out_of_range = f"batch contains segment ids outside [0, {self.n_segments})"
        try:
            ids = np.asarray(segments, dtype=np.int64)
        except OverflowError:  # an id past int64 is out of range too
            raise ServeError(out_of_range) from None
        if ids.ndim != 1:
            raise ServeError(f"batch must be a flat id list, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_segments):
            raise ServeError(out_of_range)
        return self._labels[ids]

    def nearest_segments(self, points: np.ndarray) -> np.ndarray:
        """Segment whose midpoint is nearest to each row of the ``(n, 2)``
        ``points``: one kd-tree query for the whole array (O(n log m)).

        A point too far away for its distance to be finite (e.g.
        ``(1e308, 1e308)``) has no nearest segment and raises
        :class:`ServeError`; a non-finite coordinate raises ``ValueError``.
        """
        if self._kdtree is None:
            raise ServeError("index was built without geometry: no point lookups")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ServeError(f"points must have shape (n, 2), got {pts.shape}")
        dist, idx = self._kdtree.query(pts)
        finite = np.isfinite(dist)
        if not finite.all():
            x, y = pts[np.argmin(finite)].tolist()
            raise ServeError(f"no segment at a finite distance from ({x}, {y})")
        return idx

    def nearest_segment(self, x: float, y: float) -> int:
        """Segment whose midpoint is nearest to ``(x, y)`` (O(log m))."""
        return int(self.nearest_segments([[float(x), float(y)]])[0])

    def lookup_point(self, x: float, y: float) -> Dict[str, int]:
        """Map a coordinate to its nearest segment and that segment's region."""
        segment = self.nearest_segment(x, y)
        return {"segment": segment, "region": int(self._labels[segment])}

    # ------------------------------------------------------------------
    # region queries
    def region_sizes(self) -> np.ndarray:
        """Segment count per region (non-writeable)."""
        return self._sizes

    def _check_region(self, region: int) -> int:
        region = int(region)
        if not 0 <= region < self.k:
            raise ServeError(f"region {region} out of range [0, {self.k})")
        return region

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of segments with a neighbour in another region.

        Computed once (on first use) from the adjacency; cached for
        the index's lifetime — the labelling can never change.
        """
        if self._boundary_mask is None:
            if self._adjacency is None:
                raise ServeError(
                    "index was built without adjacency: no boundary queries"
                )
            coo = self._adjacency.tocoo()
            cut = self._labels[coo.row] != self._labels[coo.col]
            mask = np.zeros(self.n_segments, dtype=bool)
            mask[coo.row[cut]] = True
            mask[coo.col[cut]] = True
            mask.flags.writeable = False
            self._boundary_mask = mask
        return self._boundary_mask

    def region_boundary(self, region: int) -> np.ndarray:
        """Ids of ``region``'s boundary segments (ascending)."""
        region = self._check_region(region)
        return np.flatnonzero(self.boundary_mask() & (self._labels == region))

    def region_bbox(self, region: int) -> Dict[str, float]:
        """Axis-aligned bounding box of ``region``'s segment midpoints."""
        region = self._check_region(region)
        if self._points is None:
            raise ServeError("index was built without geometry: no bounding boxes")
        pts = self._points[self._labels == region]
        if pts.size == 0:
            raise ServeError(f"region {region} has no member segments")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        return {
            "x_min": float(lo[0]),
            "y_min": float(lo[1]),
            "x_max": float(hi[0]),
            "y_max": float(hi[1]),
        }

    def region_info(self, region: int) -> Dict[str, Any]:
        """Summary of one region: size, boundary, bbox, mean density."""
        region = self._check_region(region)
        info: Dict[str, Any] = {
            "region": region,
            "n_segments": int(self._sizes[region]),
        }
        if self._adjacency is not None:
            info["n_boundary_segments"] = int(self.region_boundary(region).size)
        if self._points is not None:
            info["bbox"] = self.region_bbox(region)
        if self._features is not None:
            members = self._labels == region
            info["mean_density"] = float(self._features[members].mean())
        return info

    # ------------------------------------------------------------------
    # quality
    def quality(self) -> Dict[str, float]:
        """Section 6.2 metrics of this labelling (cached per epoch)."""
        if self._quality is None:
            if self._features is None or self._adjacency is None:
                raise ServeError(
                    "index was built without features/adjacency: no quality metrics"
                )
            from repro.metrics.ans import ans
            from repro.metrics.distances import inter_metric, intra_metric
            from repro.metrics.gdbi import gdbi

            feats, labels, adj = self._features, self._labels, self._adjacency
            self._quality = {
                "k": float(self.k),
                "inter": float(inter_metric(feats, labels, adj)),
                "intra": float(intra_metric(feats, labels)),
                "gdbi": float(gdbi(feats, labels, adj)),
                "ans": float(ans(feats, labels, adj)),
            }
        return dict(self._quality)

    def __repr__(self) -> str:
        return (
            f"SegmentIndex(n_segments={self.n_segments}, k={self.k}, "
            f"geometry={self._points is not None}, "
            f"adjacency={self._adjacency is not None})"
        )
