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
  so threads sharing one registry (the serving layer's) can record
  safely.
"""

from __future__ import annotations

import gc
import math
import os
import sys
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
    "process_rss_bytes",
    "process_max_rss_bytes",
    "sample_process_gauges",
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


# ----------------------------------------------------------------------
# process-level gauges (the server's /metrics)
def process_rss_bytes() -> Optional[int]:
    """Current resident-set size of this process, or None when unknown."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    return process_max_rss_bytes()  # macOS & friends: peak is the best we have


def process_max_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process (``ru_maxrss``), or None."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    # Linux reports kilobytes, macOS bytes
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def sample_process_gauges(registry: MetricsRegistry) -> None:
    """Record process-level gauges into ``registry``.

    Sets ``process.rss_bytes``, ``process.max_rss_bytes``,
    ``process.threads`` and per-generation
    ``process.gc_collections[gen=N]`` gauges. The partition server's
    ``/metrics`` calls it before every render, so scrapers always see
    fresh values.
    """
    rss = process_rss_bytes()
    if rss is not None:
        registry.set_gauge("process.rss_bytes", float(rss))
    peak = process_max_rss_bytes()
    if peak is not None:
        registry.set_gauge("process.max_rss_bytes", float(peak))
    registry.set_gauge("process.threads", float(threading.active_count()))
    for gen, stats in enumerate(gc.get_stats()):
        registry.set_gauge(
            f"process.gc_collections[gen={gen}]", float(stats.get("collections", 0))
        )
