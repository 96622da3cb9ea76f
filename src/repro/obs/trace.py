"""Hierarchical span tracing for the partitioning pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
timed region of the pipeline (framework modules, Algorithm-1 stages,
eigensolves ...). Spans nest automatically: opening a span while
another is active makes it a child, so the framework's ``module2``
span naturally contains the builder's ``module2.scan`` and
``module2.shortlist_fits`` spans without any caller bookkeeping.

Two export formats:

* :meth:`Tracer.to_dict` — a nested-JSON summary (name, duration,
  attributes, children) for programmatic consumption;
* :meth:`Tracer.to_chrome_trace` — the Chrome trace-event format
  (``{"traceEvents": [...]}`` with complete ``"ph": "X"`` events),
  loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.

The active tracer is contextvar-scoped: :func:`activate_tracer`
installs one, :func:`current_tracer` resolves it, and the
:func:`traced` decorator instruments a function only while a tracer is
active. When none is active every entry point is a single contextvar
lookup — the no-op path costs nanoseconds.

Thread model: each thread entering spans on a tracer gets its own span
stack and ``tid`` lane; completed root spans are collected under a
lock. The pipeline is serial, so a run's spans share lane 0; the
serving layer builds its request-group spans from a buffer when a
reader flushes it, on lane 0 too.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

from repro.exceptions import DataError

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "activate_tracer",
    "traced",
    "validate_chrome_trace",
    "make_traceparent",
    "parse_traceparent",
]

class Span:
    """One timed region: name, start offset, duration, attributes, children.

    Attributes
    ----------
    name:
        Human-readable region name (e.g. ``"module2.scan"``).
    start:
        Start offset in seconds relative to the tracer's epoch.
    duration:
        Elapsed wall-clock seconds (0.0 while the span is open).
    attrs:
        Free-form attributes attached at open time.
    children:
        Spans opened (and closed) while this span was active, in
        completion order.
    tid:
        Identifier of the thread that opened the span (dense small
        integer, 0 for the first thread seen by the tracer).
    """

    __slots__ = ("name", "start", "duration", "attrs", "children", "tid")

    def __init__(self, name: str, start: float, tid: int = 0, **attrs: Any) -> None:
        self.name = str(name)
        self.start = float(start)
        self.duration = 0.0
        self.attrs: Dict[str, Any] = attrs
        self.children: List["Span"] = []
        self.tid = tid

    def to_dict(self) -> Dict[str, Any]:
        """Nested-JSON form of this span and its subtree."""
        out: Dict[str, Any] = {
            "name": self.name,
            "start_s": round(self.start, 9),
            "duration_s": round(self.duration, 9),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}s, "
            f"children={len(self.children)})"
        )


class _ActiveSpan:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Collects a forest of spans for one observed run."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._epoch_perf = time.perf_counter()
        self._epoch_wall = time.time()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_ids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # span lifecycle
    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span as a context manager: ``with tracer.span("x"): ...``."""
        span = Span(
            name,
            time.perf_counter() - self._epoch_perf,
            tid=self._tid(),
            **attrs,
        )
        return _ActiveSpan(self, span)

    def record(self, name: str, seconds: float, **attrs: Any) -> Span:
        """Append an already-measured span (ends now, lasted ``seconds``)."""
        now = time.perf_counter() - self._epoch_perf
        span = Span(name, max(now - seconds, 0.0), tid=self._tid(), **attrs)
        span.duration = float(seconds)
        self._attach(span)
        return span

    @property
    def epoch_perf(self) -> float:
        """:func:`time.perf_counter` at construction; span starts are
        relative to it. Lets collaborators that buffer completed work
        (e.g. the serving layer's span ring) realign their own
        perf-counter stamps onto this tracer's timeline."""
        return self._epoch_perf

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # exports
    def to_dict(self) -> Dict[str, Any]:
        """Nested-JSON summary of the whole trace forest."""
        return {
            "epoch_unix_s": self._epoch_wall,
            "total_s": round(sum(s.duration for s in self.roots), 9),
            "spans": [span.to_dict() for span in self.roots],
        }

    def to_chrome_trace(self, metadata: Optional[Dict[str, Any]] = None) -> Dict:
        """The trace as a Chrome trace-event document (Perfetto-loadable).

        Every span lands on process lane 1, on its thread's ``tid``
        track.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro partitioning pipeline"},
            }
        ]

        def emit(span: Span) -> None:
            event: Dict[str, Any] = {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": span.tid,
            }
            if span.attrs:
                event["args"] = {k: _jsonable(v) for k, v in span.attrs.items()}
            events.append(event)
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        doc: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
        if metadata:
            doc["otherData"] = {k: _jsonable(v) for k, v in metadata.items()}
        return doc

    # ------------------------------------------------------------------
    # internals
    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._thread_ids:
                self._thread_ids[ident] = len(self._thread_ids)
            return self._thread_ids[ident]

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        span.start = time.perf_counter() - self._epoch_perf
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - self._epoch_perf - span.start
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: mismatched exits
            stack.remove(span)
        self._attach(span)

    def _attach(self, span: Span) -> None:
        parent = self.current
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        # structured attributes (e.g. the convergence traces attached
        # by repro.obs.convergence) survive both exports verbatim
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


# ----------------------------------------------------------------------
# W3C Trace Context (traceparent) — the wire format the serving layer
# uses to correlate a load generator's requests with server-side spans.
_HEX = set("0123456789abcdef")


def _is_hex(value: str, length: int) -> bool:
    return len(value) == length and all(c in _HEX for c in value)


def make_traceparent(
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    sampled: bool = True,
) -> str:
    """Build a W3C ``traceparent`` header value (version 00).

    ``00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>``. Missing
    ids are generated from :func:`os.urandom`; supplied ids must be
    lowercase hex of the right length and non-zero.
    """
    if trace_id is None:
        trace_id = os.urandom(16).hex()
    if parent_id is None:
        parent_id = os.urandom(8).hex()
    if not _is_hex(trace_id, 32) or set(trace_id) == {"0"}:
        raise DataError(
            f"trace_id must be 32 non-zero lowercase hex chars, got {trace_id!r}"
        )
    if not _is_hex(parent_id, 16) or set(parent_id) == {"0"}:
        raise DataError(
            f"parent_id must be 16 non-zero lowercase hex chars, got {parent_id!r}"
        )
    return f"00-{trace_id}-{parent_id}-{'01' if sampled else '00'}"


def parse_traceparent(header: Any):
    """Parse a ``traceparent`` header into ``(trace_id, parent_id, sampled)``.

    Accepts ``str`` or ``bytes``. Returns ``None`` for anything
    malformed — the caller falls back to a fresh trace id, per the W3C
    spec's "restart the trace" guidance.
    """
    if isinstance(header, (bytes, bytearray)):
        try:
            header = header.decode("ascii")
        except UnicodeDecodeError:
            return None
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id, flags = parts[0], parts[1], parts[2], parts[3]
    if not _is_hex(version, 2) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if not _is_hex(trace_id, 32) or set(trace_id) == {"0"}:
        return None
    if not _is_hex(parent_id, 16) or set(parent_id) == {"0"}:
        return None
    if not _is_hex(flags, 2):
        return None
    return trace_id, parent_id, bool(int(flags, 16) & 0x01)


# ----------------------------------------------------------------------
# contextvar plumbing
_ACTIVE_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_active_tracer", default=None
)


def current_tracer() -> Optional[Tracer]:
    """The tracer installed by :func:`activate_tracer`, or None."""
    return _ACTIVE_TRACER.get()


@contextmanager
def activate_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


def traced(name: Optional[str] = None, **attrs: Any):
    """Decorator: wrap a function in a span while a tracer is active.

    >>> @traced("load")
    ... def load():
    ...     return 42
    >>> load()  # no tracer active: plain call, no span recorded
    42
    """

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _ACTIVE_TRACER.get()
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# schema check (used by tests, the CI smoke job and the obs benchmark)
_EVENT_PHASES = {"X", "M"}


def validate_chrome_trace(doc: Any) -> bool:
    """Validate a Chrome trace-event document; raises ValueError if bad.

    Checks the subset of the trace-event schema this package emits:
    a ``traceEvents`` list of complete (``"ph": "X"``) or metadata
    (``"ph": "M"``) events with the required keys and sane values.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace document must be an object, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace document must have a non-empty traceEvents list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"traceEvents[{i}] missing a non-empty name")
        phase = event.get("ph")
        if phase not in _EVENT_PHASES:
            raise ValueError(f"traceEvents[{i}] has unsupported phase {phase!r}")
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            raise ValueError(f"traceEvents[{i}] needs integer pid/tid")
        if phase == "X":
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] needs ts >= 0")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] needs dur >= 0")
    return True
