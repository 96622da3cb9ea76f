"""In-process tests of the server's observability plane.

Boots :class:`PartitionServer` on a tiny spatial-shard labelling with
the full telemetry stack attached — SLO tracker, request tracer,
access-log sampling — and exercises the new surfaces over real HTTP:
``/slo``, ``/trace``, the 503 + ``Retry-After`` degraded mode, and the
per-status response counters.
"""

import json
import urllib.error
import urllib.request

import pytest

from oracles import spatial_shards
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.obs.slo import SLOTracker, default_objectives
from repro.obs.trace import Tracer, make_traceparent
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore


def _get(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _wait_counter(registry, name: str, minimum: float = 1.0) -> float:
    """Poll a counter until it reaches ``minimum`` (accounting runs on
    the server loop after the response bytes are already written, so a
    fast client can observe the response first)."""
    import time

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        value = registry.counter(name)
        if value >= minimum:
            return value
        time.sleep(0.01)
    return registry.counter(name)


def _make_store():
    network = grid_network(6, 6, two_way=True)
    points = network.segment_midpoints()
    labels = spatial_shards(points, 4)
    graph = build_road_graph(network)
    index = SegmentIndex(labels, points=points, adjacency=graph.adjacency)
    store = SnapshotStore()
    store.publish(index, meta={"labeller": "spatial_shards"})
    return store, network.n_segments


@pytest.fixture()
def observed_server():
    """A server with SLO + tracer + access log attached."""
    store, n_segments = _make_store()
    slo = SLOTracker(default_objectives(0.010))
    tracer = Tracer()
    server = PartitionServer(
        store, slo=slo, tracer=tracer, access_log_sample=1.0
    )
    handle = server.start_background()
    yield handle, server, n_segments
    handle.stop()
    store.close()


class TestSLOEndpoint:
    def test_disabled_without_tracker(self):
        store, __ = _make_store()
        handle = PartitionServer(store).start_background()
        try:
            doc = json.loads(_get(handle.url + "/slo"))
            assert doc == {"enabled": False}
        finally:
            handle.stop()
            store.close()

    def test_within_budget_after_fast_traffic(self, observed_server):
        handle, __, __n = observed_server
        for sid in range(5):
            _get(handle.url + f"/lookup?segment={sid}")
        doc = json.loads(_get(handle.url + "/slo"))
        assert doc["enabled"] is True
        assert doc["burning"] is False
        names = {e["objective"]["name"] for e in doc["objectives"]}
        assert names == {"availability", "latency"}
        for entry in doc["objectives"]:
            assert entry["budget_remaining"] == 1.0

    def test_slo_gauges_on_metrics(self, observed_server):
        handle, __, __n = observed_server
        _get(handle.url + "/lookup?segment=0")
        from repro.obs.export import parse_prometheus

        samples, __t = parse_prometheus(_get(handle.url + "/metrics").decode())
        names = {s.name for s in samples}
        assert "repro_slo_burn_rate" in names
        assert "repro_slo_error_budget_remaining" in names
        assert "repro_slo_burning" in names


class TestInjectedSlowness:
    def test_slow_path_burns_the_latency_budget(self):
        store, __ = _make_store()
        slo = SLOTracker(default_objectives(0.005))
        server = PartitionServer(store, slo=slo, inject_slow_s=0.02)
        handle = server.start_background()
        try:
            for sid in range(8):
                _get(handle.url + f"/lookup?segment={sid}")
            doc = json.loads(_get(handle.url + "/slo"))
            latency = next(
                e for e in doc["objectives"]
                if e["objective"]["name"] == "latency"
            )
            assert latency["burning"] is True
            assert latency["budget_remaining"] == 0.0
            availability = next(
                e for e in doc["objectives"]
                if e["objective"]["name"] == "availability"
            )
            assert availability["burning"] is False  # 200s are still good
            assert doc["burning"] is True
        finally:
            handle.stop()
            store.close()


class TestServerSLOOutcomes:
    def test_idle_server_ages_out_a_closed_connections_outcomes(self):
        """Outcomes are filed in the second they were served, not the
        second a later reader asks: after 1000 idle seconds every
        window is empty, however late ``/slo`` is read."""
        import time

        now = [0.0]
        store, __ = _make_store()
        slo = SLOTracker(default_objectives(0.010), clock=lambda: now[0])
        server = PartitionServer(store, slo=slo, inject_slow_s=0.02)
        handle = server.start_background()
        try:
            for sid in range(3):  # one connection each, closed after
                _get(handle.url + f"/lookup?segment={sid}")
            # the server files a connection's window when it sees the
            # close; wait for that without reading an endpoint
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                windows = slo.evaluate()[0]["windows"]
                if windows[-1]["good"] + windows[-1]["bad"] == 3:
                    break
                time.sleep(0.01)
            now[0] = 1000.0
            doc = json.loads(_get(handle.url + "/slo"))
            for entry in doc["objectives"]:
                for window in entry["windows"]:
                    assert window["good"] == window["bad"] == 0, entry
                assert entry["burning"] is False
            assert doc["burning"] is False
        finally:
            handle.stop()
            store.close()

    def test_keep_alive_window_is_filed_when_it_was_served(self):
        """Three slow requests at t=0 on a connection that stays open:
        their pending window is flushed by the ``/slo`` read at t=1000,
        but filed at t=0, so it has aged out of every window."""
        import http.client

        now = [0.0]
        store, __ = _make_store()
        slo = SLOTracker(default_objectives(0.010), clock=lambda: now[0])
        server = PartitionServer(store, slo=slo, inject_slow_s=0.02)
        handle = server.start_background()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            for sid in range(3):
                conn.request("GET", f"/lookup?segment={sid}")
                assert conn.getresponse().read()
            now[0] = 1000.0
            doc = json.loads(_get(handle.url + "/slo"))
            for entry in doc["objectives"]:
                for window in entry["windows"]:
                    assert window["good"] == window["bad"] == 0, entry
                assert entry["burning"] is False
            assert doc["burning"] is False
        finally:
            conn.close()
            handle.stop()
            store.close()

    def test_late_outcomes_never_overwrite_a_newer_second(self):
        now = [1000.0]
        slo = SLOTracker(default_objectives(0.010), clock=lambda: now[0])
        slo.record(0.001, n=4)
        # 301 s back shares the newer second's ring bucket
        slo.record(0.5, ok=False, n=2, at=1000.0 - 301)
        slo.record(0.5, ok=False, n=1, at=1000.0 - 1)
        windows = slo.evaluate()[0]["windows"]
        assert [(w["good"], w["bad"]) for w in windows] == [(4, 1), (4, 1)]

    def test_unavailable_requests_count_against_availability(self):
        import time

        store = SnapshotStore()  # nothing published: every request is a 503
        slo = SLOTracker(default_objectives(0.010))
        server = PartitionServer(store, slo=slo, require_epoch=False)
        handle = server.start_background()
        try:
            for __ in range(2):
                with pytest.raises(urllib.error.HTTPError):
                    _get(handle.url + "/lookup?segment=0")
            # /slo itself would get a 503, so read the tracker directly
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                availability = slo.evaluate()[0]
                if availability["windows"][-1]["bad"] >= 2:
                    break
                time.sleep(0.01)
            assert availability["objective"]["name"] == "availability"
            assert [(w["good"], w["bad"]) for w in availability["windows"]] == [
                (0, 2), (0, 2)
            ]
            assert availability["burning"] is True
        finally:
            handle.stop()
            store.close()


class TestTraceEndpoint:
    def test_traceparent_propagates_into_span_attrs(self, observed_server):
        handle, __, __n = observed_server
        trace_id = "c0ffee" + "0" * 25 + "1"
        header = make_traceparent(trace_id=trace_id)
        req = urllib.request.Request(
            handle.url + "/lookup?segment=1",
            headers={"traceparent": header},
        )
        urllib.request.urlopen(req, timeout=10).read()
        doc = json.loads(_get(handle.url + "/trace"))
        assert doc["enabled"] is True
        spans = doc["spans"]
        assert spans, "expected at least one request-group span"
        mine = [s for s in spans if s["attrs"].get("trace_id") == trace_id]
        assert mine, f"trace id not found in {[s['attrs'] for s in spans[-5:]]}"
        attrs = mine[-1]["attrs"]
        assert attrs["endpoint"] == "/lookup"
        assert attrs["status"] == 200
        assert attrs["epoch"] == 1
        assert attrs["n_requests"] >= 1

    def test_malformed_traceparent_gets_a_fresh_id(self, observed_server):
        handle, __, __n = observed_server
        req = urllib.request.Request(
            handle.url + "/lookup?segment=1",
            headers={"traceparent": "garbage-header"},
        )
        urllib.request.urlopen(req, timeout=10).read()
        spans = json.loads(_get(handle.url + "/trace"))["spans"]
        attrs = spans[-1]["attrs"]
        assert len(attrs["trace_id"]) == 32
        assert attrs["trace_id"] != "garbage-header"

    def test_trace_disabled_without_tracer(self):
        store, __ = _make_store()
        handle = PartitionServer(store).start_background()
        try:
            doc = json.loads(_get(handle.url + "/trace"))
            assert doc["enabled"] is False
        finally:
            handle.stop()
            store.close()


class TestDegradedMode:
    def test_empty_store_returns_503_with_retry_after(self):
        store = SnapshotStore()  # nothing published
        server = PartitionServer(store, require_epoch=False)
        handle = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(handle.url + "/lookup?segment=0")
            err = excinfo.value
            assert err.code == 503
            assert err.headers["Retry-After"] == "1"
            body = json.loads(err.read())
            assert "epoch" in body["error"]
            # the per-status counter saw it
            assert _wait_counter(server.registry, "serve.responses[status=503]") >= 1
        finally:
            handle.stop()
            store.close()

    def test_recovers_after_first_publish(self):
        store = SnapshotStore()
        server = PartitionServer(store, require_epoch=False)
        handle = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError):
                _get(handle.url + "/lookup?segment=0")
            fresh, __ = _make_store()
            store.publish(fresh.current().index, meta={})
            payload = json.loads(_get(handle.url + "/lookup?segment=0"))
            assert payload["region"] >= 0
        finally:
            handle.stop()
            store.close()

    def test_require_epoch_default_still_fails_fast(self):
        store = SnapshotStore()
        server = PartitionServer(store)  # require_epoch=True
        with pytest.raises(Exception):
            server.start_background()
        store.close()


class TestStatusCounters:
    def test_per_status_counters_accumulate(self, observed_server):
        handle, server, __n = observed_server
        _get(handle.url + "/lookup?segment=0")
        with pytest.raises(urllib.error.HTTPError):
            _get(handle.url + "/lookup?segment=not-a-number")
        assert _wait_counter(server.registry, "serve.responses[status=200]") >= 1
        assert _wait_counter(server.registry, "serve.responses[status=400]") >= 1
