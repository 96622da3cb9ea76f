"""Tests for repro.obs.trace — spans, tracer, exporters, decorator."""

import json
import threading

import pytest

from repro.obs.trace import (
    Span,
    Tracer,
    activate_tracer,
    current_tracer,
    traced,
    validate_chrome_trace,
)


class TestSpanNesting:
    def test_single_span(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tree = tracer.to_dict()
        assert len(tree["spans"]) == 1
        span = tree["spans"][0]
        assert span["name"] == "work"
        assert span["duration_s"] >= 0.0
        assert "children" not in span  # leaf spans omit the empty list

    def test_nested_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        tree = tracer.to_dict()
        assert [s["name"] for s in tree["spans"]] == ["outer"]
        children = tree["spans"][0]["children"]
        assert [c["name"] for c in children] == ["inner_a", "inner_b"]

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("run", scheme="ASG", k=6):
            pass
        span = tracer.to_dict()["spans"][0]
        assert span["attrs"] == {"scheme": "ASG", "k": 6}

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        tree = tracer.to_dict()
        assert tree["spans"][0]["name"] == "failing"
        assert tracer.current is None

    def test_record_synthetic_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            tracer.record("leaf", 0.25, source="timer")
        child = tracer.to_dict()["spans"][0]["children"][0]
        assert child["name"] == "leaf"
        assert child["duration_s"] == pytest.approx(0.25)
        assert child["attrs"] == {"source": "timer"}


class TestChromeExport:
    def _make(self):
        tracer = Tracer()
        with tracer.span("run", scheme="ASG"):
            with tracer.span("module1"):
                pass
            with tracer.span("module2"):
                pass
        return tracer

    def test_validates_and_round_trips_json(self):
        doc = self._make().to_chrome_trace()
        validate_chrome_trace(doc)
        reparsed = json.loads(json.dumps(doc))
        assert reparsed["traceEvents"]

    def test_event_structure(self):
        doc = self._make().to_chrome_trace(metadata={"run_id": "r1"})
        events = doc["traceEvents"]
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert {ev["name"] for ev in complete} == {"run", "module1", "module2"}
        run = next(ev for ev in complete if ev["name"] == "run")
        for child_name in ("module1", "module2"):
            child = next(ev for ev in complete if ev["name"] == child_name)
            assert child["ts"] >= run["ts"]
            assert child["ts"] + child["dur"] <= run["ts"] + run["dur"]
        assert run["args"] == {"scheme": "ASG"}
        assert doc["otherData"] == {"run_id": "r1"}

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Q", "pid": 0, "tid": 0}]}
            )

    def test_serial_trace_has_one_process_lane(self):
        doc = self._make().to_chrome_trace()
        validate_chrome_trace(doc)
        meta = [
            ev
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev["name"] == "process_name"
        ]
        assert len(meta) == 1  # only the main-process banner
        assert {ev["pid"] for ev in doc["traceEvents"]} == {1}


class TestAmbientTracer:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    def test_activate_scopes_tracer(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_traced_decorator_noop_without_tracer(self):
        @traced()
        def add(a, b):
            return a + b

        assert add(2, 3) == 5

    def test_traced_decorator_records_span(self):
        @traced(name="custom", kind="test")
        def add(a, b):
            return a + b

        tracer = Tracer()
        with activate_tracer(tracer):
            assert add(2, 3) == 5
        span = tracer.to_dict()["spans"][0]
        assert span["name"] == "custom"
        assert span["attrs"] == {"kind": "test"}


class TestThreading:
    def test_spans_from_worker_threads_get_own_lane(self):
        tracer = Tracer()
        # both workers must be alive at once: CPython reuses the thread
        # ident of a finished thread, which would legitimately merge
        # the lanes of sequential workers
        barrier = threading.Barrier(2)

        def work():
            barrier.wait(timeout=30)
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            threads = [threading.Thread(target=work) for __ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        doc = tracer.to_chrome_trace()
        complete = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        main_tid = next(ev["tid"] for ev in complete if ev["name"] == "main")
        worker_tids = {ev["tid"] for ev in complete if ev["name"] == "worker"}
        assert main_tid not in worker_tids
        assert len(worker_tids) == 2
        validate_chrome_trace(doc)


class TestTraceparent:
    """W3C trace-context header handling (make/parse round trips)."""

    def test_make_default_is_valid_and_random(self):
        from repro.obs.trace import make_traceparent, parse_traceparent

        a, b = make_traceparent(), make_traceparent()
        assert a != b  # fresh random ids
        parsed = parse_traceparent(a)
        assert parsed is not None
        trace_id, parent_id, sampled = parsed
        assert len(trace_id) == 32 and len(parent_id) == 16
        assert sampled is True

    def test_explicit_ids_round_trip(self):
        from repro.obs.trace import make_traceparent, parse_traceparent

        header = make_traceparent(
            trace_id="0af7651916cd43dd8448eb211c80319c",
            parent_id="b7ad6b7169203331",
            sampled=False,
        )
        assert header == "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"
        assert parse_traceparent(header) == (
            "0af7651916cd43dd8448eb211c80319c",
            "b7ad6b7169203331",
            False,
        )

    def test_make_rejects_bad_ids(self):
        from repro.exceptions import DataError
        from repro.obs.trace import make_traceparent

        for bad in ("short", "Z" * 32, "0" * 32):
            with pytest.raises(DataError):
                make_traceparent(trace_id=bad)
        with pytest.raises(DataError):
            make_traceparent(parent_id="0" * 16)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "junk",
            "00-abc-def-01",  # ids too short
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero parent id
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "ff-" + "1" * 32 + "-" + "1" * 16 + "-01",  # forbidden version
            "00-" + "1" * 32 + "-" + "1" * 16 + "-01-extra",  # v00 is 4 parts
            "0-" + "1" * 32 + "-" + "1" * 16 + "-01",  # 1-char version
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        from repro.obs.trace import parse_traceparent

        assert parse_traceparent(header) is None

    def test_bytes_and_whitespace_accepted(self):
        from repro.obs.trace import parse_traceparent

        header = "  00-" + "a" * 32 + "-" + "b" * 16 + "-01  "
        assert parse_traceparent(header) is not None
        assert parse_traceparent(header.encode()) is not None

    def test_future_version_with_extra_fields_accepted(self):
        # per W3C: unknown versions parse leniently if the prefix fits
        from repro.obs.trace import parse_traceparent

        header = "01-" + "a" * 32 + "-" + "b" * 16 + "-01-futurefield"
        parsed = parse_traceparent(header)
        assert parsed is not None
        assert parsed[0] == "a" * 32


class TestTraceparentProperties:
    def test_round_trip_and_malformed_fuzz(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.obs.trace import make_traceparent, parse_traceparent

        hex_char = st.sampled_from("0123456789abcdef")

        @st.composite
        def hex_id(draw, length):
            value = "".join(draw(st.lists(
                hex_char, min_size=length, max_size=length
            )))
            return value if int(value, 16) != 0 else "1" * length

        @settings(max_examples=50, deadline=None)
        @given(
            trace_id=hex_id(32),
            parent_id=hex_id(16),
            sampled=st.booleans(),
        )
        def round_trips(trace_id, parent_id, sampled):
            header = make_traceparent(
                trace_id=trace_id, parent_id=parent_id, sampled=sampled
            )
            assert parse_traceparent(header) == (trace_id, parent_id, sampled)

        @settings(max_examples=100, deadline=None)
        @given(st.text(max_size=80))
        def never_raises(junk):
            result = parse_traceparent(junk)
            if result is not None:
                trace_id, parent_id, sampled = result
                assert len(trace_id) == 32 and len(parent_id) == 16
                assert isinstance(sampled, bool)

        round_trips()
        never_raises()
