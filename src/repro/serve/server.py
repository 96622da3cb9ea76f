"""Asyncio partition-query server: high-QPS lookups over epochs.

:class:`PartitionServer` keeps a partitioned network resident and
answers lookup traffic from a :class:`~repro.serve.snapshot.
SnapshotStore`, stdlib-only (``asyncio.Protocol`` + hand-rolled
HTTP/1.1). It is the project's one HTTP stack: ``/metrics`` is served
here too.

Endpoints (all JSON unless noted):

=============================================  ==========================
``GET /lookup?segment=ID``                     region of one segment
``GET /lookup?x=..&y=..``                      point -> segment -> region
``GET /batch?segments=1,2,3``                  batch lookup (GET form)
``POST /lookup/batch``                         batch lookup (JSON body
                                               ``{"segments": [...]}``
                                               or a bare id list)
``GET /region/R``                              region summary (size,
                                               boundary, bbox, density)
``GET /region/R/boundary``                     boundary segment ids
``GET /quality``                               epoch quality metrics
``GET /epoch``                                 current epoch + age + pins
``GET /healthz``                               liveness probe
``GET /metrics``                               Prometheus exposition
                                               (text, version 0.0.4)
``GET /slo``                                   SLO burn state (JSON;
                                               ``{"enabled": false}``
                                               without a tracker)
``GET /trace``                                 recent request-group
                                               spans (JSON, debug)
=============================================  ==========================

Consistency: every request resolves the epoch exactly once. Batches —
and every pipelined group of requests that arrives in one socket read
— run under :meth:`SnapshotStore.pinned`, so answers never mix labels
from two epochs even when a publish lands mid-batch.

Throughput: the hot path is ``asyncio.Protocol``-level. Pipelined
requests in one ``data_received`` buffer are framed by offsets,
answered from one pinned epoch and written back as one
``transport.write``; ``TCP_NODELAY`` keeps tail latency flat. A group
is answered in bulk: single lookups inline from byte templates, every
strict-form point lookup by one kd-tree query, and every strict-form
batch (GET or POST) by one JSON parse, one range check and one label
take. Everything else, and any strict-form request that fails a check,
is answered alone by ``_handle_slow``, so its status and message do
not depend on its neighbours. A single or point lookup costs a few
microseconds of Python, a 64-id batch under twenty (see
``benchmarks/test_bench_serving.py``).

Metrics (rendered by :func:`repro.obs.export.render_prometheus`, the
quantile gauges via :func:`repro.obs.export.quantiles_from_latencies`):
``serve.requests[endpoint=..]`` counters, ``serve.lookups`` counter,
``serve.request_latency_s`` histogram plus ``serve.latency_p50_s`` /
``serve.latency_p99_s`` gauges, ``serve.qps`` gauge over a sliding
window, ``serve.batch_size`` histogram, ``serve.epoch`` /
``serve.epoch_age_s`` / ``serve.epoch_pins`` gauges, and the process
gauges every scrape refreshes. A per-status ``serve.responses
[status=..]`` counter family tracks the response mix, and an attached
:class:`~repro.obs.slo.SLOTracker` adds ``slo.*`` burn-rate gauges.

The latency series measure two different things. The
``serve.latency_p50_s`` / ``serve.latency_p99_s`` gauges are
nearest-rank quantiles of *group* busy time: the seconds spent
serving one pipelined socket read, over the last
``_LATENCY_RESERVOIR`` groups. The ``serve.request_latency_s``
histogram and the SLO latency objective use the *per-request* share:
group time divided by the requests in the group (for the SLO, a
merged window's summed group time divided by its requests).

Request telemetry is strictly opt-in and batched into per-connection
*merge windows*: consecutive all-200 groups on a connection (single,
point or batch lookups) are folded together with a couple of integer
adds, and the real work —
SLO classification, one span (endpoint/status/epoch/trace-id
attributes, the trace id taken from the window's W3C ``traceparent``
header or freshly assigned), one sampled access line through
``obs.logs`` (stderr — stdout stays reserved for the CLI's JSON) —
runs once per window: every ``_TEL_MERGE_REQUESTS`` requests, at a
group with a non-200 answer, when the connection closes, and when a
reader endpoint flushes the pending windows. Each window is stamped
with the SLO clock when its first group is served, and the SLO files
its outcomes in that second, however late an idle keep-alive
connection's window is flushed. That amortisation is what keeps the traced ``/lookup`` path
within 5% of untraced throughput (asserted by
``benchmarks/test_bench_serving.py``). With nothing attached, the
fast path is byte-for-byte the PR 8 hot loop.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from repro.exceptions import ServeError
from repro.obs.export import quantiles_from_latencies, render_prometheus
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, sample_process_gauges
from repro.obs.trace import Span, Tracer, make_traceparent, parse_traceparent
from repro.serve.snapshot import SnapshotStore

__all__ = ["PartitionServer", "ServerHandle"]

logger = get_logger("serve.server")

_JSON_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n"
)
_LOOKUP_BODY = b'{"segment":%d,"region":%d,"epoch":%d}'
_ERROR_HEAD = (
    b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n"
)
_STATUS_TEXT = {
    400: b"Bad Request",
    404: b"Not Found",
    405: b"Method Not Allowed",
    413: b"Payload Too Large",
    431: b"Request Header Fields Too Large",
    503: b"Service Unavailable",
}

#: longest request head (request line + headers) a client may send
_MAX_HEAD_BYTES = 64 * 1024
#: longest POST body; a 64-id batch is about 0.5 KB
_MAX_BODY_BYTES = 1024 * 1024
#: sliding-window length for the QPS gauge, seconds
_QPS_WINDOW_S = 10.0
#: group busy-time reservoir (last N groups) for the p50/p99 gauges
_LATENCY_RESERVOIR = 8192
#: bounded root-span history when request tracing is attached
_TRACE_ROOTS_CAP = 4096
#: emit a connection's merged telemetry window every N requests
_TEL_MERGE_REQUESTS = 512


def _json_response(payload: Any) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _JSON_HEAD % len(body) + body


def _error_response(
    status: int, message: str, retry_after: Optional[int] = None
) -> bytes:
    body = json.dumps({"error": message, "status": status}).encode("utf-8")
    head = _ERROR_HEAD % (status, _STATUS_TEXT.get(status, b"Error"), len(body))
    if retry_after is not None:
        head = head[:-2] + (b"Retry-After: %d\r\n\r\n" % retry_after)
    return head + body


class _HttpProtocol(asyncio.Protocol):
    """Minimal pipelining HTTP/1.1 protocol for one client connection."""

    __slots__ = ("server", "transport", "buf", "need", "tp_cache", "tel")

    def __init__(self, server: "PartitionServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        # the one partial request left over from earlier reads (a
        # bytearray, grown in place), or b"" when there is none
        self.buf: Any = b""
        # length ``buf`` must reach before its request can complete: the
        # head plus the declared body, or 0 while the head is unfinished
        self.need = 0
        # (head, (trace_id, parent_id)) of the last traceparent lookup;
        # pipelined clients replay one request template per connection,
        # so this one-entry cache turns per-group header parsing into a
        # single memcmp on the hot path
        self.tp_cache: Optional[Tuple[bytes, Tuple[str, str]]] = None
        # pending merged telemetry window for this connection:
        # [epoch, n_requests, seconds, head, target, method, slo_time]
        # or None (see PartitionServer._tel_boundary)
        self.tel: Optional[list] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        self.server._connections += 1
        if self.server._tel_on:
            self.server._protos.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections -= 1
        if self.tel is not None:
            self.server._emit_tel(self)
        self.server._protos.discard(self)

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        if buf:
            # grow the partial request in place, and parse only once it
            # can complete: a body near the cap is copied once, not on
            # every read
            seen = len(buf)
            buf += data
            if len(buf) < self.need:
                return  # the body is still short
            if not self.need and buf.find(b"\r\n\r\n", max(seen - 3, 0)) < 0:
                if len(buf) > _MAX_HEAD_BYTES:
                    self._fail([], 431, "request head too large")
                return  # the head is still unfinished
            data = bytes(buf)
        # requests are framed by offsets into ``data``; only what a
        # request holds is sliced out of it
        # (method, target, body, head) — head kept for traceparent
        # extraction, which only ever reads it when a tracer is attached
        requests: List[Tuple[bytes, bytes, bytes, bytes]] = []
        pos, end, need = 0, len(data), 0
        while pos < end:
            head_end = data.find(b"\r\n\r\n", pos)
            if head_end < 0:
                if end - pos > _MAX_HEAD_BYTES:
                    self._fail(requests, 431, "request head too large")
                    return
                break
            head = data[pos:head_end]
            line_end = head.find(b"\r\n")
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split(b" ")
            if len(parts) < 2:
                self._fail(requests, 400, "malformed request line")
                return
            method, target = parts[0], parts[1]
            body = b""
            consumed = head_end + 4
            # Content-Length frames a body on every method. Every
            # spelling of the header has a hyphen, so the common
            # hyphen-free GET head skips the case-folding header scan.
            if b"-" in head or method == b"POST":
                length = _content_length(head)
                if length is None:
                    length = -1 if method == b"POST" else 0
                if length < 0:
                    self._fail(requests, 400, "missing or invalid Content-Length")
                    return
                if length > _MAX_BODY_BYTES:
                    self._fail(
                        requests, 413, f"body over {_MAX_BODY_BYTES} bytes"
                    )
                    return
                if end - consumed < length:
                    need = consumed + length - pos
                    break  # body not fully buffered yet
                body = data[consumed : consumed + length]
                consumed += length
            requests.append((method, target, body, head))
            pos = consumed
        if pos < end:
            self.buf = bytearray(data[pos:])
            self.need = need
        else:
            self.buf = b""
        if requests:
            self.server._handle_group(self, requests)

    def _fail(
        self,
        requests: List[Tuple[bytes, bytes, bytes, bytes]],
        status: int,
        message: str,
    ) -> None:
        """Answer the requests parsed so far, then the error, and close."""
        if requests:
            self.server._handle_group(self, requests)
        self.transport.write(_error_response(status, message))
        self.transport.close()
        self.buf = b""


def _strict_point(target: bytes) -> Optional[Tuple[float, float]]:
    """``(x, y)`` of a ``/lookup?x=X&y=Y`` target when both are finite
    floats written without ``%`` or ``+``, else None.

    Query-string decoding changes only ``%XX`` escapes and ``+`` (a
    space), so for such a target ``float`` on the raw bytes reads what
    the query-string parser would have read.
    """
    sep = target.find(b"&y=", 10)
    if sep < 0 or b"%" in target or b"+" in target:
        return None
    try:
        x = float(target[10:sep])
        y = float(target[sep + 3 :])
    except ValueError:
        return None
    if math.isfinite(x) and math.isfinite(y):
        return x, y
    return None


def _strict_batch_query(target: bytes) -> Optional[bytes]:
    """The ids of a ``/batch?segments=1,2,3`` target when they hold only
    digits and commas, else None."""
    if not target.startswith(b"/batch?segments="):
        return None
    ids = target[16:]
    return None if ids.translate(None, b"0123456789,") else ids


def _strict_batch_body(method: bytes, target: bytes, body: bytes) -> Optional[bytes]:
    """The ids of a ``POST /lookup/batch`` whose body is
    ``{"segments": [...]}`` or a bare ``[...]``, as the bytes between
    the brackets without surrounding spaces, when they hold only digits,
    commas and spaces; else None."""
    if method != b"POST" or target != b"/lookup/batch":
        return None
    if body.startswith(b'{"segments": [') and body.endswith(b"]}"):
        ids = body[14:-2]
    elif body.startswith(b'{"segments":[') and body.endswith(b"]}"):
        ids = body[13:-2]
    elif body.startswith(b"[") and body.endswith(b"]"):
        ids = body[1:-1]
    else:
        return None
    return None if ids.translate(None, b"0123456789, ") else ids.strip(b" ")


def _content_length(head: bytes) -> Optional[int]:
    """The Content-Length of a request head: None when absent, -1 when
    not an integer."""
    lower = head.lower()
    idx = lower.find(b"content-length:")
    if idx < 0:
        return None
    end = lower.find(b"\r\n", idx)
    raw = head[idx + 15 : end if end >= 0 else len(head)]
    try:
        return int(raw)
    except ValueError:
        return -1


class ServerHandle:
    """A running server on a background thread (tests and benchmarks).

    Obtained from :meth:`PartitionServer.start_background`; exposes the
    bound ``port`` / ``url`` and stops the loop (and joins the thread)
    on :meth:`stop` or context-manager exit.
    """

    def __init__(self, server: "PartitionServer", thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class PartitionServer:
    """Serve partition lookups for the epochs of a snapshot store.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.snapshot.SnapshotStore`; publish at
        least one epoch before starting the server.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port`).
    registry:
        Metrics registry backing ``/metrics`` (fresh one by default).
    run_id:
        Optional ``run_id`` label stamped on every exported sample.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker`; every request
        group feeds it and ``/slo`` + ``slo.*`` gauges light up.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every request group
        records one span with endpoint/status/epoch/trace-id
        attributes (root history bounded at ``_TRACE_ROOTS_CAP``).
    access_log_sample:
        Fraction of request groups logged (INFO, stderr via
        ``obs.logs``) as structured access lines. 0.0 (default) logs
        nothing.
    require_epoch:
        Fail fast in :meth:`start` when the store has no epoch yet
        (default). ``False`` lets the server come up first and answer
        503 + ``Retry-After`` until the first publish lands.
    inject_slow_s:
        Artificial per-group delay in seconds — the SLO demo's way of
        flipping ``/slo`` to burning. 0.0 (default) for production.
    """

    def __init__(
        self,
        store: SnapshotStore,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        run_id: Optional[str] = None,
        slo=None,
        tracer: Optional[Tracer] = None,
        access_log_sample: float = 0.0,
        require_epoch: bool = True,
        inject_slow_s: float = 0.0,
    ) -> None:
        self.store = store
        self.host = host
        self.requested_port = int(port)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.run_id = run_id
        self.slo = slo
        self.tracer = tracer
        self.access_log_sample = float(access_log_sample)
        self.require_epoch = bool(require_epoch)
        self.inject_slow_s = float(inject_slow_s)
        self._access_logger = get_logger("serve.access")
        self._started_monotonic = time.monotonic()
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections = 0
        self._port: Optional[int] = None
        # QPS window: (monotonic_time, n_lookups) per handled group
        self._qps_window: Deque[Tuple[float, int]] = deque()
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_RESERVOIR)
        # hot-path span buffer: one tuple append per telemetry window,
        # materialised into Span objects only when a reader asks — that
        # is how the traced fast path stays within the 5% budget
        self._span_ring: Deque[tuple] = deque(maxlen=_TRACE_ROOTS_CAP)
        # telemetry plane attached? (fixed at construction; one bool
        # load per group instead of three attribute checks)
        self._tel_on = (
            slo is not None or tracer is not None or self.access_log_sample > 0.0
        )
        # live connections that may hold a pending telemetry window
        self._protos: set = set()
        self._endpoint_counts: Dict[str, int] = {}
        self._n_lookups = 0
        self._n_requests = 0

    # ------------------------------------------------------------------
    # lifecycle
    @property
    def port(self) -> int:
        if self._port is None:
            raise ServeError("server is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "PartitionServer":
        """Bind and start accepting connections (coroutine)."""
        if self._asyncio_server is not None:
            return self
        if self.require_epoch:
            self.store.current()  # fail fast when no epoch exists yet
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._asyncio_server = await self._loop.create_server(
            lambda: _HttpProtocol(self), self.host, self.requested_port
        )
        self._port = self._asyncio_server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        logger.info("partition server listening on %s", self.url)
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` is called (coroutine)."""
        if self._asyncio_server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self._close_async()

    def request_shutdown(self) -> None:
        """Ask the serving loop to exit (thread- and signal-safe)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        loop.call_soon_threadsafe(shutdown.set)

    async def _close_async(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        logger.info("partition server stopped")

    def run(self, install_signal_handlers: bool = True) -> None:
        """Blocking entry point: serve until SIGTERM/SIGINT (CLI)."""
        import signal

        async def main() -> None:
            await self.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.request_shutdown)
                    except (NotImplementedError, RuntimeError):
                        pass  # pragma: no cover - non-unix event loops
            await self.serve_until_shutdown()

        asyncio.run(main())

    def start_background(self) -> ServerHandle:
        """Start on a daemon thread; returns a :class:`ServerHandle`."""
        started = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            async def main() -> None:
                try:
                    await self.start()
                finally:
                    started.set()
                await self.serve_until_shutdown()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced via the handle below
                failure.append(exc)
                started.set()

        thread = threading.Thread(
            target=runner, name="repro-partition-server", daemon=True
        )
        thread.start()
        started.wait(timeout=30)
        if failure:
            raise failure[0]
        if self._port is None:
            raise ServeError("server failed to start within 30s")
        return ServerHandle(self, thread)

    # ------------------------------------------------------------------
    # request handling (hot path)
    def _handle_group(
        self, proto: _HttpProtocol, requests: List[Tuple[bytes, bytes, bytes, bytes]]
    ) -> None:
        """Answer every pipelined request of one socket read.

        The whole group is served under one pinned epoch — this is
        both the consistency guarantee (no mixed epochs inside any
        request, batch or not) and the coalescing that amortises the
        snapshot resolution over the group. Request telemetry (SLO,
        span, access log) is merged into per-connection windows and
        emitted once per window (see :meth:`_tel_boundary`).
        """
        t0 = time.perf_counter()
        if self.inject_slow_s > 0.0:
            time.sleep(self.inject_slow_s)  # --inject-slow-ms: SLO burn demo
        out: List[bytes] = []
        n_lookups = 0
        statuses: Dict[int, int] = {}
        try:
            snap = self.store.pin()
        except ServeError:
            # no epoch published yet: every request in the group gets a
            # 503 with Retry-After so clients know to back off briefly
            response = _error_response(
                503, "no epoch published yet", retry_after=1
            )
            proto.transport.write(response * len(requests))
            statuses[503] = len(requests)
            seconds = time.perf_counter() - t0
            self._account(len(requests), 0, seconds, statuses)
            if self._tel_on:
                self._tel_boundary(proto, requests, statuses, seconds, 0)
            return
        n_ok = 0
        n_bad_request = 0
        # strict-form point and batch lookups, answered in bulk after
        # the loop: the slot of each in ``out``, and what it asks
        point_slots: List[int] = []
        points: List[Tuple[float, float]] = []
        batch_slots: List[int] = []
        batch_ids: List[bytes] = []
        try:
            labels = snap.index.labels
            n_segments = snap.index.n_segments
            epoch = snap.epoch
            for method, target, body, __ in requests:
                if method == b"GET":
                    # fast path: single-segment lookup (statuses counted in
                    # local ints; one dict update per group, not per request)
                    if target.startswith(b"/lookup?segment="):
                        raw = target[16:]
                        amp = raw.find(b"&")
                        if amp >= 0:
                            raw = raw[:amp]
                        try:
                            sid = int(raw)
                        except ValueError:
                            out.append(_error_response(400, "segment must be an integer"))
                            n_bad_request += 1
                            continue
                        if 0 <= sid < n_segments:
                            body_bytes = _LOOKUP_BODY % (sid, labels[sid], epoch)
                            out.append(_JSON_HEAD % len(body_bytes) + body_bytes)
                            n_lookups += 1
                            n_ok += 1
                        else:
                            out.append(
                                _error_response(
                                    400, f"segment {sid} out of range [0, {n_segments})"
                                )
                            )
                            n_bad_request += 1
                        continue
                    if target.startswith(b"/lookup?x="):
                        point = _strict_point(target)
                        if point is not None:
                            point_slots.append(len(out))
                            points.append(point)
                            out.append(b"")
                            continue
                    ids = _strict_batch_query(target)
                else:
                    ids = _strict_batch_body(method, target, body)
                if ids is not None:
                    batch_slots.append(len(out))
                    batch_ids.append(ids)
                    out.append(b"")
                    continue
                response, served, status = self._handle_slow(
                    method, target, body, snap
                )
                out.append(response)
                n_lookups += served
                statuses[status] = statuses.get(status, 0) + 1
            if points:
                n_lookups += self._bulk_points(
                    requests, point_slots, points, out, snap, statuses
                )
            if batch_ids:
                n_lookups += self._bulk_batches(
                    requests, batch_slots, batch_ids, out, snap, statuses
                )
        finally:
            self.store.unpin(snap)
        if n_ok:
            statuses[200] = statuses.get(200, 0) + n_ok
        if n_bad_request:
            statuses[400] = statuses.get(400, 0) + n_bad_request
        proto.transport.write(b"".join(out))
        seconds = time.perf_counter() - t0
        n_requests = len(requests)
        self._account(n_requests, n_lookups, seconds, statuses)
        if self._tel_on:
            # merge consecutive all-200 groups (single, point or batch
            # lookups) into one per-connection telemetry window: a
            # couple of list adds per group, with the real work (SLO
            # classification, span, access log) amortised over
            # _TEL_MERGE_REQUESTS requests. Pipelined reads often carry
            # only 1-2 requests, so even a ~1 us per-group cost would
            # blow the 5% overhead budget.
            tel = proto.tel
            if tel is not None and (
                n_ok == n_requests or statuses.get(200, 0) == n_requests
            ):
                tel[1] += n_requests
                tel[2] += seconds
                if tel[1] >= _TEL_MERGE_REQUESTS:
                    self._emit_tel(proto)
            else:
                self._tel_boundary(proto, requests, statuses, seconds, epoch)

    def _tel_boundary(
        self,
        proto: _HttpProtocol,
        requests: List[Tuple[bytes, bytes, bytes, bytes]],
        statuses: Dict[int, int],
        seconds: float,
        epoch: int,
    ) -> None:
        """Telemetry-window boundary: the first group after an emitted
        window, or a group with a non-200 answer. Flushes the pending
        window, then either starts a fresh one (all-200 group) or emits
        this group unmerged with its own status mix (rare: errors,
        503s)."""
        self._emit_tel(proto)
        n_requests = len(requests)
        method, target, __b, head = requests[0]
        if statuses.get(200, 0) == n_requests:
            # [epoch, n_requests, seconds, head, target, method, slo_time]:
            # the window's outcomes are filed in the second it started
            started = self.slo.now() if self.slo is not None else None
            proto.tel = [epoch, n_requests, seconds, head, target, method, started]
            return
        n_bad = 0
        for status, n in statuses.items():
            if status >= 500:
                n_bad += n
        worst = max(statuses) if statuses else 200
        self._emit(
            proto, head, target, n_requests, seconds, worst, epoch, n_bad,
            method=method,
        )

    def _emit_tel(self, proto: _HttpProtocol) -> None:
        """Emit a connection's pending merged telemetry window."""
        tel = proto.tel
        if tel is None:
            return
        proto.tel = None
        epoch, n_requests, seconds, head, target, method, started = tel
        self._emit(
            proto, head, target, n_requests, seconds, 200, epoch, 0,
            method=method, at=started,
        )

    def _emit(
        self,
        proto: _HttpProtocol,
        head: bytes,
        target: bytes,
        n_requests: int,
        seconds: float,
        worst: int,
        epoch: int,
        n_bad: int,
        method: bytes = b"GET",
        at: Optional[float] = None,
    ) -> None:
        """Feed one (possibly merged) request window into SLO/trace/log.

        ``seconds`` is the summed serving time of the window's groups
        (busy time, not wall span); ``method``, ``target`` and ``head``
        are the window's first request's, which stand for the whole
        window (clients pipeline one request template per connection).
        ``at`` is the SLO clock when the window's first group was
        served (default: now).
        """
        slo = self.slo
        if slo is not None:
            per_request = seconds / n_requests if n_requests else 0.0
            slo.record(per_request, n=n_requests - n_bad, at=at)
            slo.record(per_request, ok=False, n=n_bad, at=at)

        if self.tracer is None and not self.access_log_sample:
            return
        path = target.partition(b"?")[0].decode("latin-1")
        cached = proto.tp_cache
        if cached is not None and cached[0] == head:
            trace_id, parent_id = cached[1]
        else:
            parsed = None
            # canonical lowercase first; the .lower() copy only on miss
            idx = head.find(b"traceparent:")
            if idx < 0:
                idx = head.lower().find(b"traceparent:")
            if idx >= 0:
                end = head.find(b"\r\n", idx)
                raw = head[idx + 12 : end if end >= 0 else len(head)]
                parsed = parse_traceparent(raw)
            if parsed is not None:
                trace_id, parent_id, __sampled = parsed
            else:
                # absent or malformed header: assign a fresh trace
                header = make_traceparent()
                trace_id, parent_id = header.split("-")[1], header.split("-")[2]
            proto.tp_cache = (head, (trace_id, parent_id))

        if self.tracer is not None:
            # one tuple append; Span objects are built lazily by
            # _flush_spans when /trace (or a shutdown export) reads them
            self._span_ring.append(
                (
                    time.perf_counter(),
                    seconds,
                    path,
                    worst,
                    epoch,
                    n_requests,
                    trace_id,
                    parent_id,
                )
            )

        if self.access_log_sample and random.random() < self.access_log_sample:
            self._access_logger.info(
                "%s %s status=%d n=%d lookups_ms=%.3f epoch=%d trace_id=%s",
                method.decode("latin-1"),
                path,
                worst,
                n_requests,
                seconds * 1e3,
                epoch,
                trace_id,
            )

    def _bulk_points(self, requests, slots, points, out, snap, statuses) -> int:
        """Answer a group's strict-form point lookups with one kd-tree
        query into their ``out`` slots; returns the lookups served.

        When the query fails (an index without geometry, a point with no
        segment at a finite distance), each request is answered alone
        by :meth:`_handle_slow`, so each gets its own status and error.
        """
        try:
            segments = snap.index.nearest_segments(points)
        except ServeError:
            return self._answer_slow(requests, slots, out, snap, statuses)
        regions = snap.index.labels[segments].tolist()
        epoch = snap.epoch
        for slot, segment, region in zip(slots, segments.tolist(), regions):
            body = _LOOKUP_BODY % (segment, region, epoch)
            out[slot] = _JSON_HEAD % len(body) + body
        statuses[200] = statuses.get(200, 0) + len(slots)
        return len(slots)

    def _bulk_batches(self, requests, slots, id_lists, out, snap, statuses) -> int:
        """Answer a group's strict-form batch lookups with one parse, one
        range check and one label take into their ``out`` slots; returns
        the lookups served.

        ``id_lists`` holds each request's ids as comma-separated digits
        (JSON-list bytes without the brackets). A group that does not
        parse as one JSON list of int64 ids, and any request with an id
        out of range, is answered per request by :meth:`_handle_slow`,
        so the status and error message are the single path's.
        """
        counts = [ids.count(b",") + 1 if ids else 0 for ids in id_lists]
        try:
            flat = json.loads(b"[" + b",".join(filter(None, id_lists)) + b"]")
            ids = np.array(flat, dtype=np.int64)
        except (ValueError, OverflowError):
            return self._answer_slow(requests, slots, out, snap, statuses)
        index = snap.index
        bad = set()  # positions of requests with an id out of range
        if ids.size and ids.max() >= index.n_segments:
            owners = np.repeat(np.arange(len(slots)), counts)
            bad = set(owners[ids >= index.n_segments].tolist())
        regions = index.labels.take(ids, mode="clip").tolist()
        name = [b"%d" % region for region in range(index.k)].__getitem__
        epoch = snap.epoch
        served = n_ok = start = 0
        for i, (slot, count) in enumerate(zip(slots, counts)):
            stop = start + count
            if i in bad:
                served += self._answer_slow(requests, [slot], out, snap, statuses)
            else:
                body = b'{"epoch":%d,"regions":[%s]}' % (
                    epoch, b",".join(map(name, regions[start:stop]))
                )
                out[slot] = _JSON_HEAD % len(body) + body
                self.registry.observe("serve.batch_size", count)
                served += count
                n_ok += 1
            start = stop
        if n_ok:
            statuses[200] = statuses.get(200, 0) + n_ok
        return served

    def _answer_slow(self, requests, slots, out, snap, statuses) -> int:
        """Answer the requests at ``slots`` one at a time through
        :meth:`_handle_slow`; returns the lookups served."""
        served = 0
        for slot in slots:
            method, target, body, __ = requests[slot]
            out[slot], n, status = self._handle_slow(method, target, body, snap)
            served += n
            statuses[status] = statuses.get(status, 0) + 1
        return served

    def _handle_slow(self, method: bytes, target: bytes, body: bytes, snap):
        """One request answered on its own: everything outside the
        single-segment and strict point/batch forms, and any strict-form
        request the bulk path declined. Returns
        ``(response_bytes, n_lookups_served, status)``."""
        try:
            path, __, query = target.partition(b"?")
            if method == b"GET":
                if path == b"/lookup":
                    return self._lookup_point(query, snap), 1, 200
                if path == b"/batch":
                    params = parse_qs(query.decode("utf-8", "replace"))
                    raw = params.get("segments", [""])[0]
                    ids = [int(s) for s in raw.split(",") if s != ""]
                    response, served = self._batch(ids, snap)
                    return response, served, 200
                if path == b"/epoch":
                    return _json_response(self._epoch_info(snap)), 0, 200
                if path == b"/quality":
                    payload = dict(snap.index.quality())
                    payload["epoch"] = snap.epoch
                    return _json_response(payload), 0, 200
                if path.startswith(b"/region/"):
                    return self._region(path, snap), 0, 200
                if path == b"/healthz":
                    return _json_response({"ok": True, "epoch": snap.epoch}), 0, 200
                if path == b"/metrics":
                    return self._metrics_response(snap), 0, 200
                if path == b"/slo":
                    return self._slo_response(), 0, 200
                if path == b"/trace":
                    return self._trace_response(), 0, 200
                return (
                    _error_response(404, f"no route {path.decode('latin-1')}"),
                    0,
                    404,
                )
            if method == b"POST":
                if path == b"/lookup/batch":
                    payload = json.loads(body or b"null")
                    if isinstance(payload, dict):
                        payload = payload.get("segments")
                    if not isinstance(payload, list):
                        raise ServeError(
                            'batch body must be {"segments": [...]} or an id list'
                        )
                    response, served = self._batch(payload, snap)
                    return response, served, 200
                return (
                    _error_response(404, f"no route {path.decode('latin-1')}"),
                    0,
                    404,
                )
            return _error_response(405, "only GET and POST are served"), 0, 405
        except ServeError as exc:
            return _error_response(400, str(exc)), 0, 400
        except (ValueError, json.JSONDecodeError) as exc:
            return _error_response(400, f"bad request: {exc}"), 0, 400

    def _lookup_point(self, query: bytes, snap) -> bytes:
        params = parse_qs(query.decode("utf-8", "replace"))
        if "x" not in params or "y" not in params:
            raise ServeError("lookup needs ?segment=ID or ?x=..&y=..")
        found = snap.index.lookup_point(float(params["x"][0]), float(params["y"][0]))
        found["epoch"] = snap.epoch
        return _json_response(found)

    def _batch(self, ids: List[int], snap) -> Tuple[bytes, int]:
        regions = snap.index.regions_of(ids)
        body = (
            b'{"epoch":%d,"regions":%s}'
            % (snap.epoch, json.dumps(regions.tolist()).encode())
        )
        self.registry.observe("serve.batch_size", len(ids))
        return _JSON_HEAD % len(body) + body, len(ids)

    def _region(self, path: bytes, snap) -> bytes:
        parts = path.split(b"/")  # ['', 'region', R, ('boundary',)]
        try:
            region = int(parts[2])
        except (IndexError, ValueError):
            raise ServeError("region id must be an integer") from None
        if len(parts) >= 4 and parts[3] == b"boundary":
            boundary = snap.index.region_boundary(region)
            return _json_response(
                {
                    "epoch": snap.epoch,
                    "region": region,
                    "n_boundary_segments": int(boundary.size),
                    "segments": boundary.tolist(),
                }
            )
        info = snap.index.region_info(region)
        info["epoch"] = snap.epoch
        return _json_response(info)

    # ------------------------------------------------------------------
    # metrics
    def _account(
        self,
        n_requests: int,
        n_lookups: int,
        seconds: float,
        statuses: Optional[Dict[int, int]] = None,
    ) -> None:
        now = time.monotonic()
        self._n_requests += n_requests
        self._n_lookups += n_lookups
        window = self._qps_window
        window.append((now, n_lookups))
        cutoff = now - _QPS_WINDOW_S
        while window and window[0][0] < cutoff:
            window.popleft()
        if n_requests:
            # every request in the group waited for the whole group
            per_request = seconds / n_requests
            self._latencies.append(seconds)
            self.registry.observe("serve.request_latency_s", per_request)
            self.registry.observe("serve.group_size", n_requests)
        self.registry.inc("serve.requests", n_requests)
        if n_lookups:
            self.registry.inc("serve.lookups", n_lookups)
        if statuses:
            for status, count in statuses.items():
                self.registry.inc(f"serve.responses[status={status}]", count)

    def flush_telemetry(self) -> None:
        """Drain the hot-path telemetry buffers into their stores.

        The request path batches outcomes into per-connection merge
        windows and spans into a tuple ring; every reader — ``/slo``,
        ``/metrics``, ``/trace`` and the CLI's shutdown export — flushes
        first, so observers always see a consistent view.
        Safe to call from any thread (the per-connection merge windows
        are only drained when called on the serving loop's thread; off
        the loop they stay pending, bounding staleness at
        ``_TEL_MERGE_REQUESTS`` requests per connection).
        """
        loop = self._loop
        if loop is not None:
            try:
                on_loop = asyncio.get_running_loop() is loop
            except RuntimeError:
                on_loop = False
            if on_loop:
                self._flush_conn_tel()
        self._flush_spans()

    def _flush_conn_tel(self) -> None:
        """Emit every connection's pending merge window (loop thread)."""
        for proto in list(self._protos):
            if proto.tel is not None:
                self._emit_tel(proto)

    def _flush_spans(self) -> None:
        """Materialise ring-buffered request groups as tracer spans."""
        tracer = self.tracer
        ring = self._span_ring
        if tracer is None or not ring:
            return
        epoch_perf = tracer.epoch_perf
        roots = tracer.roots
        while True:
            try:
                (
                    end,
                    seconds,
                    path,
                    status,
                    epoch,
                    n_requests,
                    trace_id,
                    parent_id,
                ) = ring.popleft()
            except IndexError:
                break
            span = Span(
                "serve.request_group",
                max(end - epoch_perf - seconds, 0.0),
                endpoint=path,
                status=status,
                epoch=epoch,
                n_requests=n_requests,
                trace_id=trace_id,
                parent_id=parent_id,
            )
            span.duration = seconds
            roots.append(span)
        if len(roots) > _TRACE_ROOTS_CAP:
            del roots[: len(roots) - _TRACE_ROOTS_CAP]

    def _refresh_gauges(self, snap) -> None:
        registry = self.registry
        registry.set_gauge("serve.epoch", float(snap.epoch))
        registry.set_gauge("serve.epoch_age_s", snap.age_s)
        registry.set_gauge("serve.epoch_pins", float(snap.pins))
        registry.set_gauge("serve.connections", float(self._connections))
        registry.set_gauge(
            "serve.uptime_s", time.monotonic() - self._started_monotonic
        )
        window = self._qps_window
        if window:
            span = max(time.monotonic() - window[0][0], 1e-9)
            registry.set_gauge(
                "serve.qps", sum(n for __, n in window) / span
            )
        else:
            registry.set_gauge("serve.qps", 0.0)
        latencies = list(self._latencies)
        p50, p99 = quantiles_from_latencies(latencies, (0.5, 0.99))
        registry.set_gauge("serve.latency_p50_s", p50)
        registry.set_gauge("serve.latency_p99_s", p99)
        if self.slo is not None:
            self.slo.export_gauges(registry)
        try:
            sample_process_gauges(registry)
        except Exception:  # pragma: no cover - resource module quirks
            pass

    def _metrics_response(self, snap) -> bytes:
        self.flush_telemetry()
        self._refresh_gauges(snap)
        extra = {"run_id": self.run_id} if self.run_id else None
        text = render_prometheus(self.registry, extra_labels=extra)
        body = text.encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; "
            b"charset=utf-8\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        return head + body

    def _slo_response(self) -> bytes:
        if self.slo is None:
            return _json_response({"enabled": False})
        self.flush_telemetry()
        return _json_response(self.slo.to_dict())

    def _trace_response(self) -> bytes:
        """Recent request-group spans (debug endpoint for propagation tests)."""
        if self.tracer is None:
            return _json_response({"enabled": False, "spans": []})
        self.flush_telemetry()
        roots = list(self.tracer.roots)[-200:]
        return _json_response(
            {"enabled": True, "spans": [span.to_dict() for span in roots]}
        )

    def _epoch_info(self, snap) -> Dict[str, Any]:
        return {
            "epoch": snap.epoch,
            "age_s": snap.age_s,
            "n_segments": snap.index.n_segments,
            "k": snap.index.k,
            "pins": snap.pins,
            "pinned_epochs": self.store.pinned_epochs(),
            "meta": snap.meta,
            "n_requests": self._n_requests,
            "n_lookups": self._n_lookups,
        }
