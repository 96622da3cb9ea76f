"""Socket-free tests of the server's HTTP/1.1 request parser and of its
bulk answers to pipelined groups.

``_HttpProtocol`` is driven directly with a fake transport and a fake
server, so every test is a pure function of the bytes fed in: the
parsed requests the server would answer, the bytes written back, and
whether the connection was closed. The bulk-group tests put a real
:class:`PartitionServer` behind the same fake transport.
"""

import json
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.slo import SLOTracker, default_objectives
from repro.obs.trace import Tracer
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore
from repro.serve.server import _MAX_BODY_BYTES, _MAX_HEAD_BYTES, _HttpProtocol


class FakeTransport:
    def __init__(self):
        self.written = []
        self.closed = False

    def write(self, data):
        self.written.append(bytes(data))

    def close(self):
        self.closed = True


class FakeServer:
    """Records every request group instead of answering it."""

    def __init__(self):
        self.groups = []

    def _handle_group(self, proto, requests):
        self.groups.append(list(requests))

    @property
    def requests(self):
        return [request for group in self.groups for request in group]


def _protocol():
    server = FakeServer()
    proto = _HttpProtocol(server)
    proto.transport = FakeTransport()
    return proto, server


def _status(written: bytes) -> int:
    return int(written.split(b" ", 2)[1])


def _feed_with_timeout(proto, data: bytes, timeout: float = 2.0) -> None:
    """Run ``data_received`` on a thread so a parser that never returns
    fails the test instead of hanging the suite."""
    worker = threading.Thread(target=proto.data_received, args=(data,), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "data_received did not return"


class TestRequestLimits:
    @pytest.mark.parametrize("length", [b"-40", b"ten"])
    def test_bad_content_length_is_rejected(self, length):
        proto, server = _protocol()
        _feed_with_timeout(
            proto, b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
        )
        assert server.requests == []
        assert [_status(w) for w in proto.transport.written] == [400]
        assert proto.transport.closed
        assert proto.buf == b""

    def test_oversize_body_is_rejected_before_buffering(self):
        proto, server = _protocol()
        head = b"POST /lookup/batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        _feed_with_timeout(proto, head % (_MAX_BODY_BYTES + 1))
        assert server.requests == []
        assert [_status(w) for w in proto.transport.written] == [413]
        assert proto.transport.closed
        assert proto.buf == b""

    def test_body_at_the_cap_is_accepted(self):
        proto, server = _protocol()
        body = b"x" * _MAX_BODY_BYTES
        head = b"POST /lookup/batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        proto.data_received(head % len(body) + body)
        assert proto.transport.written == []
        assert [r[2] for r in server.requests] == [body]

    def test_unterminated_head_over_the_cap_gets_431(self):
        proto, server = _protocol()
        proto.data_received(b"GET /lookup?segment=1 HTTP/1.1\r\nX-Pad: ")
        proto.data_received(b"a" * (70 * 1024))
        assert server.requests == []
        assert [_status(w) for w in proto.transport.written] == [431]
        assert proto.transport.closed
        assert proto.buf == b""

    def test_partial_head_under_the_cap_keeps_buffering(self):
        proto, server = _protocol()
        proto.data_received(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 1000)
        assert proto.transport.written == [] and not proto.transport.closed
        proto.data_received(b"\r\n\r\n")
        assert [r[1] for r in server.requests] == [b"/healthz"]

    @pytest.mark.parametrize("name", [b"Content-Length", b"content-length", b"CONTENT-length"])
    def test_get_body_is_framed_by_content_length(self, name):
        """A GET's body is its body, not the next pipelined request."""
        proto, server = _protocol()
        smuggled = b"GET /metrics HTTP/1.1\r\n\r\n"
        proto.data_received(
            b"GET /healthz HTTP/1.1\r\n" + name + b": %d\r\n\r\n" % len(smuggled) + smuggled
        )
        assert [r[:3] for r in server.requests] == [(b"GET", b"/healthz", smuggled)]
        assert proto.transport.written == [] and proto.buf == b""

    @pytest.mark.parametrize(
        "length, status", [(b"-1", 400), (b"ten", 400), (b"%d" % (_MAX_BODY_BYTES + 1), 413)]
    )
    def test_get_content_length_limits(self, length, status):
        proto, server = _protocol()
        _feed_with_timeout(
            proto, b"GET /healthz HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
        )
        assert server.requests == []
        assert [_status(w) for w in proto.transport.written] == [status]
        assert proto.transport.closed

    def test_requests_before_a_fatal_error_are_answered_first(self):
        proto, server = _protocol()
        proto.data_received(
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        )
        assert [r[1] for r in server.requests] == [b"/healthz"]
        assert [_status(w) for w in proto.transport.written] == [400]
        assert proto.transport.closed


_TARGETS = st.sampled_from(
    [b"/lookup?segment=3", b"/healthz", b"/metrics", b"/batch?segments=1,2", b"/x"]
)


@st.composite
def _request(draw):
    """One valid request as (wire bytes, (method, target, body))."""
    target = draw(_TARGETS)
    extra = draw(st.sampled_from([b"", b"Host: a\r\n", b"traceparent: t\r\n"]))
    kind = draw(st.sampled_from(["get", "get-body", "post"]))
    if kind == "get":
        head = b"GET " + target + b" HTTP/1.1\r\n" + extra
        return head + b"\r\n", (b"GET", target, b"")
    body = draw(st.binary(max_size=64))
    if kind == "get-body":
        head = b"GET " + target + b" HTTP/1.1\r\n" + extra + b"content-length: %d\r\n" % len(body)
        return head + b"\r\n" + body, (b"GET", target, body)
    head = (
        b"POST /lookup/batch HTTP/1.1\r\n" + extra
        + b"Content-Length: %d\r\n" % len(body)
    )
    return head + b"\r\n" + body, (b"POST", b"/lookup/batch", body)


class TestPipelinedSplits:
    @given(
        requests=st.lists(_request(), min_size=1, max_size=12),
        cuts=st.lists(st.integers(0, 10_000), max_size=16),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_split_parses_like_one_shot(self, requests, cuts):
        stream = b"".join(wire for wire, __ in requests)
        expected = [parsed for __, parsed in requests]

        one_shot, one_server = _protocol()
        one_shot.data_received(stream)
        assert [r[:3] for r in one_server.requests] == expected

        bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
        proto, server = _protocol()
        for lo, hi in zip(bounds, bounds[1:]):
            proto.data_received(stream[lo:hi])
            assert len(proto.buf) <= _MAX_HEAD_BYTES + (hi - lo)
        assert server.requests == one_server.requests
        assert proto.buf == b""
        assert proto.transport.written == []
        assert not proto.transport.closed


# ----------------------------------------------------------------------
# A real PartitionServer behind the fake transport: the bulk group path


def _live_server(telemetry=False):
    """A server over 40 scattered segments in 5 regions, and a protocol
    wired to it with a fake transport (no sockets, no event loop)."""
    points = np.random.default_rng(0).uniform(0.0, 100.0, (40, 2))
    store = SnapshotStore()
    store.publish(SegmentIndex(np.arange(40) % 5, points=points))
    extra = {}
    if telemetry:
        extra = dict(slo=SLOTracker(default_objectives(0.01)), tracer=Tracer())
    server = PartitionServer(store, **extra)
    proto = _HttpProtocol(server)
    proto.transport = FakeTransport()
    return server, store, proto


def _responses(stream: bytes):
    """``(status, body)`` of every response in ``stream``."""
    out, pos = [], 0
    while pos < len(stream):
        head_end = stream.index(b"\r\n\r\n", pos)
        head = stream[pos:head_end]
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        body = stream[head_end + 4 : head_end + 4 + length]
        out.append((_status(head), body))
        pos = head_end + 4 + length
    return out


def _alone(server, request):
    """``(status, parsed body)`` of ``request`` answered on its own: by
    the single-lookup fast path for ``/lookup?segment=``, else by
    ``_handle_slow``."""
    method, target, body, __ = request
    if method == b"GET" and target.startswith(b"/lookup?segment="):
        proto = _HttpProtocol(server)
        proto.transport = FakeTransport()
        server._handle_group(proto, [request])
        ((status, answer),) = _responses(b"".join(proto.transport.written))
        return status, json.loads(answer)
    with server.store.pinned() as snap:
        response, __, __ = server._handle_slow(method, target, body, snap)
    ((status, answer),) = _responses(response)
    return status, json.loads(answer)


def _serve_counters(server):
    """Every ``serve.*`` counter, and the batch-size histogram's count
    and sum."""
    metrics = server.registry.to_dict()
    counters = {
        name: value for name, value in metrics["counters"].items() if name.startswith("serve.")
    }
    sizes = metrics["histograms"].get("serve.batch_size", {})
    return counters, sizes.get("count", 0), sizes.get("sum", 0)


class TestFarPoint:
    def test_far_point_gets_a_400_between_answered_lookups(self):
        server, store, proto = _live_server()
        proto.data_received(
            b"GET /lookup?segment=1 HTTP/1.1\r\n\r\n"
            b"GET /lookup?x=1e308&y=1e308 HTTP/1.1\r\n\r\n"
            b"GET /lookup?x=5&y=5 HTTP/1.1\r\n\r\n"
            b"GET /lookup?segment=2 HTTP/1.1\r\n\r\n"
        )
        answers = _responses(b"".join(proto.transport.written))
        assert [status for status, __ in answers] == [200, 400, 200, 200]
        assert b"finite distance" in answers[1][1]
        assert json.loads(answers[3][1])["segment"] == 2
        assert not proto.transport.closed
        assert store.pinned_epochs() == {}


_COORDINATES = st.one_of(
    st.floats(-10.0, 110.0, allow_nan=False).map(lambda v: repr(v).encode()),
    st.sampled_from([b"1e308", b"-1e308", b"nan", b"inf", b"1e+2", b"%35", b"1_0", b"", b"x"]),
)
_IDS = st.lists(
    st.one_of(st.integers(0, 39), st.sampled_from([40, 10**20, -1])), max_size=6
)


@st.composite
def _mixed_request(draw):
    """One request of the bulk path's kinds, valid or not, as
    (wire bytes, parsed (method, target, body, head))."""
    kind = draw(
        st.sampled_from(["single", "point", "get-batch", "post-batch", "route", "garbage"])
    )
    body = b""
    method = b"GET"
    if kind == "single":
        sid = draw(st.one_of(st.integers(-2, 42).map(b"%d".__mod__), st.just(b"x")))
        target = b"/lookup?segment=" + sid
    elif kind == "point":
        x, y = draw(_COORDINATES), draw(_COORDINATES)
        target = b"/lookup?x=" + x + b"&y=" + y + draw(st.sampled_from([b"", b"&z=1"]))
    elif kind == "get-batch":
        ids = [b"%d" % i for i in draw(_IDS)]
        text = b",".join(ids) + draw(st.sampled_from([b"", b",", b",,7", b",007"]))
        target = b"/batch?segments=" + text
    elif kind == "post-batch":
        method, target = b"POST", b"/lookup/batch"
        ids = draw(_IDS)
        body = draw(
            st.sampled_from(
                [
                    json.dumps({"segments": ids}).encode(),
                    json.dumps(ids).encode(),
                    json.dumps({"segments": ids}, separators=(",", ":")).encode(),
                    json.dumps({"segments": ids}).encode() + b" ",
                    json.dumps({"segments": [str(i) for i in ids]}).encode(),
                    b'{"segments": [1 2]}',
                    b"[01]",
                    b"not json",
                ]
            )
        )
    elif kind == "route":
        target = draw(st.sampled_from([b"/healthz", b"/region/1", b"/region/9", b"/nope"]))
    else:
        method = draw(st.sampled_from([b"GET", b"PUT"]))
        target = b"/" + draw(st.binary(max_size=24)).translate(None, b" \r\n")
    head = method + b" " + target + b" HTTP/1.1\r\nHost: a"
    if body or method == b"POST":
        head += b"\r\nContent-Length: %d" % len(body)
    return head + b"\r\n\r\n" + body, (method, target, body, head)


_FATAL = st.sampled_from(
    [
        (b"", None),
        (b"POST /lookup/batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (_MAX_BODY_BYTES + 1), 413),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (_MAX_HEAD_BYTES + 1), 431),
        (b"GARBAGE\r\n\r\n", 400),
    ]
)


class TestBulkGroups:
    """A pipelined group answered in bulk answers every request as it
    would be answered alone, and keeps every counter and pin balanced."""

    @given(
        requests=st.lists(_mixed_request(), min_size=1, max_size=16),
        fatal=_FATAL,
        telemetry=st.booleans(),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_group_answers_equal_single_answers(self, requests, fatal, telemetry):
        server, store, proto = _live_server(telemetry)
        tail, fatal_status = fatal
        proto.data_received(b"".join(wire for wire, __ in requests) + tail)
        answers = _responses(b"".join(proto.transport.written))
        parsed = [request for __, request in requests]

        oracle, __, __ = _live_server()
        expected = [_alone(oracle, request) for request in parsed]
        assert [(status, json.loads(body)) for status, body in answers[: len(parsed)]] == expected
        if fatal_status is None:
            assert len(answers) == len(parsed) and not proto.transport.closed
        else:
            assert [status for status, __ in answers[len(parsed) :]] == [fatal_status]
            assert proto.transport.closed
        assert store.pinned_epochs() == {}

        # the same counters as when each request came in a group of its own
        alone, __, __ = _live_server(telemetry)
        for request in parsed:
            single = _HttpProtocol(alone)
            single.transport = FakeTransport()
            alone._handle_group(single, [request])
        assert _serve_counters(server) == _serve_counters(alone)
        if telemetry:
            server._emit_tel(proto)
            assert sum(span[5] for span in server._span_ring) == len(parsed)


class TestTelemetryWindows:
    """All-200 groups of any lookup kind share one telemetry window per
    connection; the SLO and the span ring see it once, when emitted."""

    def test_point_and_batch_groups_merge_into_one_window(self):
        server, __, proto = _live_server(telemetry=True)
        body = json.dumps({"segments": [1, 2, 3]}).encode()
        batch = b"POST /lookup/batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
            len(body),
            body,
        )
        point = b"GET /lookup?x=10&y=20 HTTP/1.1\r\nHost: a\r\n\r\n"
        for group in (batch * 2, point, batch, point * 3):  # one read each
            proto.data_received(group)
        answers = _responses(b"".join(proto.transport.written))
        assert [status for status, __ in answers] == [200] * 7
        assert proto.tel is not None and proto.tel[1] == 7
        assert proto.tel[5] == b"POST"  # the window's first request stands for it
        assert not server._span_ring
        windows = server.slo.evaluate()[0]["windows"]
        assert windows[-1]["good"] + windows[-1]["bad"] == 0

        server._emit_tel(proto)
        assert [span[5] for span in server._span_ring] == [7]
        for entry in server.slo.evaluate():
            assert (entry["windows"][-1]["good"], entry["windows"][-1]["bad"]) == (7, 0)

    def test_an_error_group_closes_the_window(self):
        server, __, proto = _live_server(telemetry=True)
        proto.data_received(b"GET /lookup?x=10&y=20 HTTP/1.1\r\n\r\n" * 2)
        proto.data_received(b"GET /nope HTTP/1.1\r\n\r\n")
        assert proto.tel is None
        assert [span[5] for span in server._span_ring] == [2, 1]
