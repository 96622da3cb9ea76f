"""Distributed / incremental repartitioning (paper Section 6.4).

For continuously monitored networks the paper proposes: partition the
whole network once, then, as congestion evolves, "repeatedly subject
[the partitions] to partitioning distributively with the changing
congestion measures" — i.e. repartition each region *independently*,
which is much cheaper than a global run and embarrassingly parallel.

:class:`IncrementalRepartitioner` implements that loop:

* :meth:`bootstrap` runs a full global partitioning at the first
  timestamp;
* :meth:`update` repartitions only the regions whose density
  distribution changed materially (mean shift above a threshold),
  splitting each stale region into ``round(k * size_share)`` parts
  locally and renumbering globally;
* regions that did not change keep their segment sets, so the work per
  step is proportional to where congestion actually moved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.obs.logs import get_logger
from repro.obs.metrics import incr, observe
from repro.pipeline.schemes import run_scheme
from repro.util.rng import RngLike

logger = get_logger("pipeline.incremental")


@dataclass
class UpdateReport:
    """What one incremental update did.

    Attributes
    ----------
    refreshed:
        Region ids that were repartitioned in this update.
    kept:
        Region ids left untouched.
    labels:
        The new global label vector.
    duration_s:
        Wall-clock seconds the update took (staleness detection plus
        any local repartitions).
    n_relabelled:
        Number of segments whose region membership actually changed —
        segments of a refreshed region that was split into more than
        one part. A refreshed region that came back as a single part,
        and every kept region, contribute zero: their member sets are
        intact even though ids are renumbered.
    """

    refreshed: List[int]
    kept: List[int]
    labels: np.ndarray
    duration_s: float = 0.0
    n_relabelled: int = 0

    @property
    def n_regions(self) -> int:
        """Number of regions after the update."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary (labels elided — they can be megabytes)."""
        return {
            "refreshed": [int(r) for r in self.refreshed],
            "kept": [int(r) for r in self.kept],
            "n_regions": self.n_regions,
            "duration_s": float(self.duration_s),
            "n_relabelled": int(self.n_relabelled),
        }


class IncrementalRepartitioner:
    """Repartition an evolving network region by region.

    Parameters
    ----------
    graph:
        The road graph (topology is fixed; densities change per step).
    k:
        Global number of partitions maintained.
    scheme:
        Scheme used for both the bootstrap and the local refreshes.
    staleness_threshold:
        A region is refreshed when the relative change of its mean
        density exceeds this threshold (default 0.25 = 25%).
    seed:
        Reproducibility seed.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        scheme: str = "ASG",
        staleness_threshold: float = 0.25,
        seed: RngLike = 0,
    ) -> None:
        if k < 1:
            raise PartitioningError(f"k must be positive, got {k}")
        if staleness_threshold < 0:
            raise PartitioningError(
                f"staleness_threshold must be >= 0, got {staleness_threshold}"
            )
        self._graph = graph
        self._k = int(k)
        self._scheme = scheme
        self._threshold = float(staleness_threshold)
        self._seed = seed
        self._labels: Optional[np.ndarray] = None
        self._region_means: Optional[np.ndarray] = None
        self._listeners: List[Callable] = []

    @property
    def labels(self) -> Optional[np.ndarray]:
        """Current global label vector (None before bootstrap)."""
        return None if self._labels is None else self._labels.copy()

    @property
    def graph(self) -> Graph:
        """The (topology-fixed) road graph being repartitioned."""
        return self._graph

    @property
    def k(self) -> int:
        """The global partition-count target."""
        return self._k

    def subscribe(self, listener: Callable) -> Callable[[], None]:
        """Register an epoch-publish hook; returns an unsubscriber.

        ``listener(labels, densities, report)`` fires after every
        :meth:`bootstrap` (``report=None``) and :meth:`update` with a
        private copy of the new label vector and the densities that
        produced it — this is how a
        :class:`repro.serve.snapshot.SnapshotStore` learns about new
        epochs without the pipeline knowing the serving layer exists.
        Listener exceptions are logged, never raised: a broken
        subscriber must not take the repartitioning loop down.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify(
        self,
        densities: np.ndarray,
        report: Optional[UpdateReport],
    ) -> None:
        if not self._listeners:
            return
        labels = self._labels.copy()
        for listener in list(self._listeners):
            try:
                listener(labels, densities, report)
            except Exception:
                logger.exception("epoch-publish listener failed; continuing")

    def bootstrap(self, densities: Sequence[float]) -> np.ndarray:
        """Full global partitioning at the first timestamp."""
        densities = self._check_densities(densities)
        g0 = self._graph.with_features(densities)
        result = run_scheme(self._scheme, g0, self._k, seed=self._seed)
        self._labels = result.labels.copy()
        self._region_means = self._means(densities, self._labels)
        self._notify(densities, None)
        return self._labels.copy()

    def update(self, densities: Sequence[float]) -> UpdateReport:
        """Refresh only the regions whose congestion changed materially."""
        if self._labels is None:
            raise PartitioningError("call bootstrap() before update()")
        started = time.perf_counter()
        densities = self._check_densities(densities)
        labels = self._labels
        n_regions = int(labels.max()) + 1
        new_means = self._means(densities, labels)
        old_means = self._region_means
        drift = np.abs(new_means - old_means) / np.maximum(np.abs(old_means), 1e-9)
        is_stale = drift > self._threshold
        stale = np.flatnonzero(is_stale).tolist()
        kept = np.flatnonzero(~is_stale).tolist()

        incr("incremental.updates")
        incr("incremental.regions_refreshed", len(stale))
        incr("incremental.regions_kept", len(kept))
        logger.info(
            "incremental update: %d/%d regions stale", len(stale), n_regions
        )
        if not stale:
            self._region_means = new_means
            duration = time.perf_counter() - started
            observe("incremental.update_latency_s", duration)
            incr("incremental.segments_relabelled", 0)  # keep the series present
            report = UpdateReport(
                refreshed=[],
                kept=kept,
                labels=labels.copy(),
                duration_s=duration,
            )
            self._notify(densities, report)
            return report

        # kept regions are renumbered 0..len(kept)-1 in region order by
        # one table gather; stale regions then take the ids after them
        lookup = np.zeros(n_regions, dtype=int)
        lookup[kept] = np.arange(len(kept))
        new_labels = lookup[labels]
        next_id = len(kept)
        # members of every region, ascending, from one stable sort
        order = np.argsort(labels, kind="stable")
        bounds = np.zeros(n_regions + 1, dtype=int)
        np.cumsum(np.bincount(labels, minlength=n_regions), out=bounds[1:])
        # repartition each stale region locally; a stale region of
        # size share s gets max(1, round(k * s)) local parts, keeping
        # the total region count close to (though not exactly) k —
        # the region count drifts with where congestion concentrates.
        # A region that stays one part needs no subgraph at all.
        n_relabelled = 0
        for region in stale:
            members = order[bounds[region] : bounds[region + 1]]
            share = members.size / labels.size
            local_k = min(max(1, round(self._k * share)), members.size)
            if local_k >= 2 and members.size >= 3:
                sub, __ = self._graph.subgraph(members)
                sub = sub.with_features(densities[members])
                local = run_scheme(self._scheme, sub, local_k, seed=self._seed).labels
                n_parts = int(local.max()) + 1
            else:
                local, n_parts = 0, 1
            if n_parts > 1:  # actually split: membership churned
                n_relabelled += int(members.size)
            new_labels[members] = next_id + local
            next_id += n_parts

        self._labels = _dense(new_labels)
        self._region_means = self._means(densities, self._labels)
        duration = time.perf_counter() - started
        observe("incremental.update_latency_s", duration)
        incr("incremental.segments_relabelled", n_relabelled)
        report = UpdateReport(
            refreshed=stale,
            kept=kept,
            labels=self._labels.copy(),
            duration_s=duration,
            n_relabelled=n_relabelled,
        )
        self._notify(densities, report)
        return report

    # ------------------------------------------------------------------
    def _check_densities(self, densities) -> np.ndarray:
        arr = np.asarray(densities, dtype=float)
        if arr.shape != (self._graph.n_nodes,):
            raise PartitioningError(
                f"densities must have shape ({self._graph.n_nodes},), "
                f"got {arr.shape}"
            )
        # a NaN would make its region's mean NaN, and no later change
        # ever compares as material against NaN: the region would freeze
        if not np.isfinite(arr).all():
            raise PartitioningError("densities must be finite")
        return arr

    @staticmethod
    def _means(densities: np.ndarray, labels: np.ndarray) -> np.ndarray:
        n_regions = int(labels.max()) + 1
        sizes = np.bincount(labels, minlength=n_regions)
        sums = np.bincount(labels, weights=densities, minlength=n_regions)
        return sums / np.maximum(sizes, 1)


def _dense(labels: np.ndarray) -> np.ndarray:
    """Renumber non-negative ids to 0..n-1, keeping their order."""
    used = np.bincount(labels) > 0
    return (np.cumsum(used) - 1)[labels]
