"""Algorithm-level metrics: counters, gauges, histograms.

Wall clocks say *where time went*; these metrics say *what the
algorithms did* — how many kappa candidates the Algorithm-1 scan
considered, how many Lloyd iterations k-means ran, how many supernodes
survived the stability check, how many boundary nodes the refinement
moved. The pipeline is instrumented with the module-level helpers
(:func:`incr`, :func:`set_gauge`, :func:`observe`), which resolve the
ambient :class:`MetricsRegistry` through a contextvar:

* no registry active (the default) — each helper is one contextvar
  lookup and an early return, so instrumentation in hot paths is
  effectively free;
* a registry active (via :func:`use_registry` or
  :class:`repro.obs.ObsContext`) — the fact is recorded, under a lock,
  so thread-pool workers (:func:`repro.util.parallel.map_parallel`
  propagates the ambient context into its workers) can record safely.

Process-pool workers run in separate interpreters, so they record into
a fresh worker-side registry whose snapshot travels back with each
result; :func:`repro.util.parallel.map_parallel` merges those deltas
into the caller's registry via :meth:`MetricsRegistry.merge_snapshot`
— counters add up, gauges take the last write in input order, and
histograms combine their summaries, so process-pool maps lose nothing
relative to in-process recording.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "use_registry",
    "metrics_enabled",
    "incr",
    "set_gauge",
    "observe",
]


class Histogram:
    """Streaming summary of observed values.

    Tracks count / sum / min / max plus power-of-two bucket counts
    (bucket ``b`` holds values ``2**(b-1) < v <= 2**b``; non-positive
    values land in bucket ``"<=0"``), which is enough to see the shape
    of e.g. per-item work times without storing samples.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        key = "<=0" if value <= 0 else f"2^{math.ceil(math.log2(value))}"
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` snapshot into this one.

        Used to merge process-pool worker histograms back into the
        caller's registry; count/sum add, min/max combine, and the
        power-of-two buckets accumulate.
        """
        count = int(data.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(data.get("sum", 0.0))
        lo, hi = data.get("min"), data.get("max")
        if lo is not None and float(lo) < self.min:
            self.min = float(lo)
        if hi is not None and float(hi) > self.max:
            self.max = float(hi)
        for key, bucket_count in (data.get("buckets") or {}).items():
            self.buckets[key] = self.buckets.get(key, 0) + int(bucket_count)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": dict(self.buckets),
        }


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name`` (monotone total)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def remove_gauge(self, name: str) -> bool:
        """Drop the gauge ``name`` (True if it existed).

        Gauges keyed by a drifting identity (e.g. per-region density in
        the incremental pipeline, where the region count changes) need
        explicit retirement so stale series stop being exported.
        """
        with self._lock:
            return self._gauges.pop(name, None) is not None

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot from another registry in.

        The merge semantics match what in-process recording would have
        produced: counters are summed, gauges take the incoming value
        (last write wins — callers merge worker snapshots in input
        order), histogram summaries combine. This is how process-pool
        worker metrics survive the interpreter boundary.
        """
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, value in (snapshot.get("gauges") or {}).items():
                self._gauges[name] = float(value)
            for name, data in (snapshot.get("histograms") or {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_dict(data)

    # ------------------------------------------------------------------
    # reading
    def counter(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: Optional[float] = None) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot: ``{"counters": .., "gauges": .., "histograms": ..}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict() for name, hist in self._histograms.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._histograms)


# ----------------------------------------------------------------------
# contextvar plumbing — the no-op path when no registry is active is a
# single ContextVar.get() returning None.
_ACTIVE_REGISTRY: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_active_metrics", default=None
)


def current_registry() -> Optional[MetricsRegistry]:
    """The registry installed by :func:`use_registry`, or None."""
    return _ACTIVE_REGISTRY.get()


def metrics_enabled() -> bool:
    """True when a metrics registry is active in this context.

    Instrumentation that must do extra work to *compute* a metric
    (e.g. counting k-means reassignments) guards on this so the
    disabled path stays free.
    """
    return _ACTIVE_REGISTRY.get() is not None


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the enclosed block."""
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY.reset(token)


def incr(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` on the ambient registry, if any."""
    registry = _ACTIVE_REGISTRY.get()
    if registry is not None:
        registry.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the ambient registry, if any."""
    registry = _ACTIVE_REGISTRY.get()
    if registry is not None:
        registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the ambient registry, if any."""
    registry = _ACTIVE_REGISTRY.get()
    if registry is not None:
        registry.observe(name, value)
