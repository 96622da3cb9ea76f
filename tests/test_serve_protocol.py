"""Socket-free tests of the server's HTTP/1.1 request parser.

``_HttpProtocol`` is driven directly with a fake transport and a fake
server, so every test is a pure function of the bytes fed in: the
parsed requests the server would answer, the bytes written back, and
whether the connection was closed.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
