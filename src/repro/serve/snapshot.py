"""Snapshot epochs: consistent partition views under live republishing.

The serving layer must answer queries *while* the incremental
repartitioner swaps better partitions in underneath. The concurrency
model here is epoch-based read-copy-update:

* a :class:`Snapshot` is an **immutable** epoch — a monotone epoch id
  plus a frozen :class:`~repro.serve.index.SegmentIndex` (every array
  non-writeable), so reading one never needs a lock;
* a :class:`SnapshotStore` holds the current epoch behind what is
  effectively an atomic pointer — :meth:`SnapshotStore.current` is a
  single attribute read, and :meth:`SnapshotStore.publish` swaps the
  pointer after the new epoch is fully built, so readers observe
  either the old epoch or the new one, never a half-built state;
* in-flight requests **pin** the epoch they started on
  (:meth:`SnapshotStore.pinned`), so a batch that overlaps a publish
  still answers every element from one labelling — no torn reads;
* retired epochs are dropped when their last pin drops, which is
  what bounds the store to ~one epoch of memory plus whatever the
  slowest in-flight request still holds.

:func:`attach_repartitioner` is the epoch-publish hook: it subscribes
to an :class:`~repro.pipeline.incremental.IncrementalRepartitioner`
(see its ``subscribe``) and republishes a fresh epoch after every
``bootstrap()`` / ``update()`` — publishing never blocks readers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.exceptions import ServeError
from repro.obs.logs import get_logger
from repro.obs.metrics import incr, set_gauge
from repro.serve.index import SegmentIndex

__all__ = [
    "Snapshot",
    "SnapshotStore",
    "attach_repartitioner",
]

logger = get_logger("serve.snapshot")


class Snapshot:
    """One immutable partitioning epoch.

    Attributes
    ----------
    epoch:
        Monotone epoch id (1-based; assigned by the store).
    index:
        The frozen :class:`~repro.serve.index.SegmentIndex`.
    created_monotonic:
        ``time.monotonic()`` at publish — drives the epoch-age gauge.
    meta:
        Arbitrary provenance (scheme, k, update report summary, ...).
    """

    __slots__ = (
        "epoch",
        "index",
        "created_monotonic",
        "meta",
        "_pins",
        "_retired",
    )

    def __init__(
        self,
        epoch: int,
        index: SegmentIndex,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.epoch = int(epoch)
        self.index = index
        self.created_monotonic = time.monotonic()
        self.meta = dict(meta or {})
        self._pins = 0
        self._retired = False

    @property
    def age_s(self) -> float:
        """Seconds since this epoch was published."""
        return time.monotonic() - self.created_monotonic

    @property
    def pins(self) -> int:
        """Number of in-flight requests pinning this epoch."""
        return self._pins

    def __repr__(self) -> str:
        return (
            f"Snapshot(epoch={self.epoch}, n_segments={self.index.n_segments}, "
            f"k={self.index.k}, pins={self._pins})"
        )


class SnapshotStore:
    """Atomic holder of the current epoch plus retirement bookkeeping.

    Readers:

    * :meth:`current` — one attribute read, never blocks, never sees a
      half-published epoch;
    * :meth:`pinned` — context manager for multi-step reads (batch
      lookups): the epoch it yields stays alive until the block
      exits, even if newer epochs are published meanwhile.

    Writers:

    * :meth:`publish` — assign the next monotone epoch id, swap the
      pointer, retire the predecessor. The swap happens after the new
      index is fully constructed, so publish never blocks readers for
      longer than one uncontended lock acquisition.

    Parameters
    ----------
    max_epochs:
        Safety valve: raise after this many publishes (None = unbounded).
    """

    def __init__(self, max_epochs: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None
        self._last_epoch = 0
        self._max_epochs = max_epochs
        self._listeners: List[Callable[[Snapshot], None]] = []
        self._retired_pinned: List[Snapshot] = []
        self._closed = False

    # ------------------------------------------------------------------
    # write side
    def publish(
        self,
        index: SegmentIndex,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Snapshot:
        """Publish ``index`` as the next epoch; returns the new snapshot."""
        if not isinstance(index, SegmentIndex):
            raise ServeError(
                f"publish() takes a SegmentIndex, got {type(index).__name__}"
            )
        with self._lock:
            if self._closed:
                raise ServeError("snapshot store is closed")
            if self._max_epochs is not None and self._last_epoch >= self._max_epochs:
                raise ServeError(f"epoch limit {self._max_epochs} reached")
            self._last_epoch += 1
            snap = Snapshot(self._last_epoch, index, meta=meta)
            old = self._current
            self._current = snap
            if old is not None:
                old._retired = True
                self._track_retired(old)
            listeners = list(self._listeners)
        incr("serve.epochs_published")
        set_gauge("serve.epoch", float(snap.epoch))
        for listener in listeners:
            try:
                listener(snap)
            except Exception as exc:  # a bad listener must not block publishes
                logger.warning("snapshot listener failed: %s", exc)
        return snap

    def subscribe(self, listener: Callable[[Snapshot], None]) -> Callable[[], None]:
        """Call ``listener(snapshot)`` after every publish; returns an
        unsubscribe function."""
        with self._lock:
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    # ------------------------------------------------------------------
    # read side
    def current(self) -> Snapshot:
        """The current epoch (one atomic attribute read)."""
        snap = self._current
        if snap is None:
            raise ServeError("no epoch published yet")
        return snap

    @property
    def last_epoch(self) -> int:
        """Highest epoch id published so far (0 before the first)."""
        return self._last_epoch

    def pin(self) -> Snapshot:
        """Pin the current epoch; pair with :meth:`unpin`."""
        with self._lock:
            snap = self._current
            if snap is None:
                raise ServeError("no epoch published yet")
            snap._pins += 1
        return snap

    def unpin(self, snap: Snapshot) -> None:
        """Release one pin taken with :meth:`pin`."""
        with self._lock:
            if snap._pins <= 0:
                raise ServeError(f"epoch {snap.epoch} is not pinned")
            snap._pins -= 1
            self._track_retired(snap)

    @contextmanager
    def pinned(self) -> Iterator[Snapshot]:
        """Context manager: the current epoch, pinned for the block.

        Every read inside the block — however long it takes, however
        many publishes happen meanwhile — comes from the one epoch
        yielded here. This is the no-torn-reads guarantee the batch
        endpoint and the property tests rely on.
        """
        snap = self.pin()
        try:
            yield snap
        finally:
            self.unpin(snap)

    def pinned_epochs(self) -> Dict[int, int]:
        """``{epoch: pins}`` for every epoch still pinned (diagnostics)."""
        with self._lock:
            out: Dict[int, int] = {}
            if self._current is not None and self._current._pins:
                out[self._current.epoch] = self._current._pins
            for snap in self._retired_pinned:
                out[snap.epoch] = snap._pins
            return out

    # ------------------------------------------------------------------
    # lifecycle
    def _track_retired(self, snap: Snapshot) -> None:
        # caller holds the lock
        if not snap._retired:
            return
        if snap._pins == 0:
            if snap in self._retired_pinned:
                self._retired_pinned.remove(snap)
        elif snap not in self._retired_pinned:
            # retired with readers still on it: keep a handle so
            # pinned_epochs() reports it until the last pin drops
            self._retired_pinned.append(snap)

    def close(self) -> None:
        """Retire every epoch (idempotent).

        Outstanding pins are ignored — close is the end of service.
        """
        with self._lock:
            self._closed = True
            snap = self._current
            self._current = None
            if snap is not None:
                snap._retired = True
            self._retired_pinned.clear()

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        snap = self._current
        return f"SnapshotStore(epoch={snap.epoch if snap else None})"


# ----------------------------------------------------------------------
# the epoch-publish hook: incremental repartitioner -> store
def attach_repartitioner(
    store: SnapshotStore,
    repartitioner,
    network=None,
    points: Optional[np.ndarray] = None,
    bootstrap_densities: Optional[np.ndarray] = None,
) -> Callable[[], None]:
    """Republish a fresh epoch after every repartitioner step.

    Subscribes to ``repartitioner`` (see
    :meth:`repro.pipeline.incremental.IncrementalRepartitioner.subscribe`);
    each ``bootstrap()`` / ``update()`` then builds a new
    :class:`~repro.serve.index.SegmentIndex` — labels from the step,
    adjacency from the repartitioner's graph, densities from the step's
    snapshot, midpoints from ``network``/``points`` — and publishes it.
    Readers keep answering from the previous epoch until the swap.

    When ``bootstrap_densities`` is given and the repartitioner already
    has labels, an initial epoch is published immediately.

    Returns the unsubscribe function.
    """
    if points is None and network is not None:
        from repro.shard.spatial import segment_midpoints

        points = segment_midpoints(network)
    adjacency = repartitioner.graph.adjacency

    def _publish(labels: np.ndarray, densities, report) -> None:
        index = SegmentIndex(
            labels, points=points, adjacency=adjacency, features=densities
        )
        meta: Dict[str, Any] = {"scheme": getattr(repartitioner, "_scheme", None)}
        if report is not None:
            meta["refreshed"] = list(report.refreshed)
            meta["n_relabelled"] = int(report.n_relabelled)
        store.publish(index, meta=meta)

    unsubscribe = repartitioner.subscribe(_publish)
    if bootstrap_densities is not None and repartitioner.labels is not None:
        _publish(repartitioner.labels, np.asarray(bootstrap_densities, float), None)
    return unsubscribe
