"""Tests for cross-process observability.

Covers the worker→parent wire formats (span trees and profile
samples), grafting worker traces into the parent timeline, the
pid-aware Chrome-trace export, merged flame graphs, the pool's
data-plane metrics (queue wait, per-worker busy time, startup,
serialization), the Prometheus exposition of the ``parallel.*``
and ``shm.*`` families under all three pools, and the rule that the
work picks the pool: only sharded mining runs in processes.
"""

import os
import time

import numpy as np
import pytest

from repro.clustering.optimality import scan_kappa
from repro.datasets import small_network
from repro.network.dual import build_road_graph
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.profile import (
    ProfileConfig,
    Profiler,
    merge_profiles,
    validate_speedscope,
)
from repro.obs.trace import (
    SPAN_WIRE_SCHEMA_VERSION,
    Tracer,
    activate_tracer,
    span_from_wire,
    validate_chrome_trace,
)
from repro.shard.pipeline import ShardedSupergraphBuilder
from repro.shard.spatial import segment_midpoints
from repro.supergraph.builder import SupergraphBuilder
from repro.util.parallel import map_parallel
from repro.util.shm import ShardContext


# ---------------------------------------------------------------- helpers
def _square(x):
    return x * x


def _busy(x, seconds=0.05):
    """Burn CPU long enough for the worker profiler to sample it."""
    deadline = time.perf_counter() + seconds
    total = 0.0
    while time.perf_counter() < deadline:
        total += float(np.sum(np.arange(2000) * (x + 1)))
    return x


def _traced_square(x):
    from repro.obs.metrics import incr
    from repro.obs.trace import current_tracer

    incr("test.worker_calls")
    tracer = current_tracer()
    assert tracer is not None
    with tracer.span("inner", item=int(x)):
        return x * x


def _read_shared(x):
    from repro.util.shm import active_shard

    arr = active_shard().get("vec")
    return float(arr[x])


def _in_processes(fn, items):
    """``map_parallel`` on two worker processes (a shard selects them)."""
    with ShardContext() as shard:
        return map_parallel(fn, items, workers=2, shard=shard)


# ------------------------------------------------------------- span wire
class TestSpanWire:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer.span("outer", depth=0):
            with tracer.span("inner", depth=1):
                pass
            with tracer.span("inner2"):
                pass
        return tracer

    def test_wire_round_trip_preserves_tree(self):
        tracer = self._sample_tracer()
        wire = tracer.to_wire()
        assert wire["schema_version"] == SPAN_WIRE_SCHEMA_VERSION
        assert wire["pid"] == os.getpid()
        (root,) = wire["spans"]
        rebuilt = span_from_wire(root)
        assert rebuilt.name == "outer"
        assert rebuilt.attrs["depth"] == 0
        assert [c.name for c in rebuilt.children] == ["inner", "inner2"]
        original = tracer.roots[0]
        assert rebuilt.duration == pytest.approx(original.duration)

    def test_wire_offset_shifts_all_starts(self):
        tracer = self._sample_tracer()
        (root,) = tracer.to_wire()["spans"]
        base = span_from_wire(root)
        shifted = span_from_wire(root, offset_s=1.5)
        assert shifted.start == pytest.approx(base.start + 1.5)
        assert shifted.children[0].start == pytest.approx(
            base.children[0].start + 1.5
        )

    def test_graft_attaches_under_current_span(self):
        worker = self._sample_tracer()
        wire = worker.to_wire()
        parent = Tracer()
        with parent.span("run"):
            grafted = parent.graft(wire, worker=3, item=7)
        (run,) = parent.roots
        assert [c.name for c in run.children] == ["outer"]
        (outer,) = grafted
        assert outer.attrs["pid"] == wire["pid"]
        assert outer.attrs["worker"] == 3
        assert outer.attrs["item"] == 7
        # grandchildren stay intact and do not get the graft attrs
        assert "pid" not in outer.children[0].attrs

    def test_graft_without_active_span_lands_at_roots(self):
        wire = self._sample_tracer().to_wire()
        parent = Tracer()
        parent.graft(wire)
        assert [s.name for s in parent.roots] == ["outer"]

    def test_graft_clamps_clock_skew(self):
        wire = self._sample_tracer().to_wire()
        wire["epoch_unix_s"] -= 3600.0  # worker clock behind the parent
        parent = Tracer()
        (outer,) = parent.graft(wire)
        assert outer.start >= 0.0

    def test_graft_rejects_unknown_schema(self):
        wire = self._sample_tracer().to_wire()
        wire["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            Tracer().graft(wire)


# ---------------------------------------------------------- chrome trace
class TestChromeTraceMultiPid:
    def test_grafted_spans_get_their_own_pid_lane(self):
        worker = Tracer()
        with worker.span("worker:task"):
            with worker.span("shard.mine"):
                pass
        wire = worker.to_wire()
        wire["pid"] = 4242  # pretend it crossed a process boundary
        parent = Tracer()
        with parent.span("run"):
            parent.graft(wire, worker=0)
        trace = parent.to_chrome_trace()
        validate_chrome_trace(trace)
        pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert pids == {1, 4242}  # main lane keeps the serial pid 1
        # the worker span's children inherit the worker lane
        mine = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "shard.mine"
        ]
        assert mine and all(e["pid"] == 4242 for e in mine)
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert any("4242" in n for n in names)

    def test_serial_trace_has_no_worker_metadata(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("step"):
                pass
        trace = tracer.to_chrome_trace()
        validate_chrome_trace(trace)
        meta = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert len(meta) == 1  # only the main-process banner
        assert {e["pid"] for e in trace["traceEvents"]} == {1}


# --------------------------------------------------------- profile merge
class TestWorkerProfileMerge:
    def _run_profiler(self, seconds=0.05):
        prof = Profiler(ProfileConfig(hz=400))
        with prof:
            _busy(1, seconds=seconds)
        return prof

    def test_worker_payload_shape(self):
        prof = self._run_profiler()
        payload = prof.worker_payload()
        assert payload["schema_version"] == 1
        assert payload["pid"] == os.getpid()
        assert payload["samples"]
        thread, frames, count, seconds = payload["samples"][0]
        assert isinstance(thread, str)
        assert isinstance(frames, list)
        assert count >= 1 and seconds > 0

    def test_merge_rekeys_by_pid(self):
        parent = self._run_profiler()
        payload = self._run_profiler().worker_payload()
        payload["pid"] = 7777
        parent.merge_worker(payload)
        assert parent.worker_pids == [7777]
        doc = parent.speedscope()
        validate_speedscope(doc)
        names = {p["name"] for p in doc["profiles"]}
        assert any(n.startswith("pid:7777:") for n in names)
        # after a merge the parent's own threads are pid-prefixed too
        assert any(n.startswith(f"pid:{os.getpid()}:") for n in names)

    def test_serial_profile_names_unchanged(self):
        doc = self._run_profiler().speedscope()
        assert all(not p["name"].startswith("pid:") for p in doc["profiles"])

    def test_merge_rejects_unknown_schema(self):
        prof = self._run_profiler()
        payload = prof.worker_payload()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            prof.merge_worker(payload)

    def test_merge_profiles_combines_documents(self):
        doc_a = self._run_profiler().speedscope()
        doc_b = self._run_profiler().speedscope()
        for profile in doc_b["profiles"]:
            profile["name"] = f"pid:9999:{profile['name']}"
        merged = merge_profiles(doc_a, doc_b, name="combined")
        validate_speedscope(merged)
        assert merged["name"] == "combined"
        names = {p["name"] for p in merged["profiles"]}
        assert names == {p["name"] for p in doc_a["profiles"]} | {
            p["name"] for p in doc_b["profiles"]
        }

    def test_merge_profiles_folds_same_named_lanes(self):
        doc_a = self._run_profiler().speedscope()
        doc_b = self._run_profiler().speedscope()
        merged = merge_profiles(doc_a, doc_b)
        validate_speedscope(merged)
        # both docs profile MainThread → one combined lane
        names = [p["name"] for p in merged["profiles"]]
        assert names.count("MainThread") == 1


# ----------------------------------------------------- process-pool runs
class TestProcessPoolObservability:
    def test_worker_spans_grafted_with_attrs(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        with use_registry(reg), activate_tracer(tracer):
            with tracer.span("run"):
                out = _in_processes(_traced_square, range(4))
        assert out == [0, 1, 4, 9]
        (run,) = tracer.roots
        workers = [c for c in run.children if c.name.startswith("worker:")]
        assert len(workers) == 4
        pids = set()
        for span in workers:
            assert span.attrs["pid"] != os.getpid()
            assert span.attrs["worker"] in (0, 1)
            assert span.attrs["parent_span"] == "run"
            assert [c.name for c in span.children] == ["inner"]
            pids.add(span.attrs["pid"])
        # one worker may drain all four items before the second spins
        # up, so only the lower bound is deterministic
        assert 1 <= len(pids) <= 2
        assert reg.to_dict()["counters"]["test.worker_calls"] == 4

    def test_pool_metrics_recorded(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            _in_processes(_square, range(6))
        snap = reg.to_dict()
        gauges, hists = snap["gauges"], snap["histograms"]
        assert gauges["parallel.workers_used"] >= 1
        assert gauges["parallel.pool_startup_seconds"] >= 0
        assert hists["parallel.queue_wait_seconds"]["count"] == 6
        busy = {
            name: h
            for name, h in hists.items()
            if name.startswith("parallel.worker_busy_seconds[")
        }
        assert busy  # one labelled series per worker actually used
        # one busy-time observation per worker per map
        assert len(busy) == int(gauges["parallel.workers_used"])
        assert all(h["count"] == 1 for h in busy.values())

    def test_shard_data_plane_metrics(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with ShardContext() as shard:
                shard.put("vec", np.arange(8, dtype=np.float64))
                out = map_parallel(_read_shared, range(4), workers=2, shard=shard)
        assert out == [0.0, 1.0, 2.0, 3.0]
        snap = reg.to_dict()
        assert snap["counters"]["shm.shares"] == 1
        assert snap["counters"]["shm.attaches"] >= 1
        assert snap["counters"]["shm.leak_checks"] == 1
        assert snap["counters"]["shm.leak_checks_clean"] == 1
        assert snap["gauges"]["shm.arrays_registered"] == 1
        assert snap["gauges"]["shm.bytes_registered"] == 64
        assert snap["gauges"]["shm.bytes_shared"] >= 64
        assert snap["histograms"]["shm.share_seconds"]["count"] == 1

    def test_merged_flame_graph_spans_processes(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        prof = Profiler(ProfileConfig(hz=400), registry=reg, tracer=tracer)
        with use_registry(reg), activate_tracer(tracer), prof:
            with tracer.span("run"):
                _in_processes(_busy, range(4))
        assert len(prof.worker_pids) == 2
        doc = prof.speedscope()
        validate_speedscope(doc)
        pids = {
            p["name"].split(":")[1]
            for p in doc["profiles"]
            if p["name"].startswith("pid:")
        }
        assert len(pids) >= 2  # parent plus at least one worker


# -------------------------------------------------- prometheus families
class TestPrometheusAcrossModes:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_parallel_and_shm_families_expose(self, pool):
        reg = MetricsRegistry()
        with use_registry(reg):
            with ShardContext() as shard:
                shard.put("vec", np.arange(8, dtype=np.float64))
                if pool == "thread":  # a shard would select processes
                    map_parallel(_square, range(4), workers=2)
                else:
                    workers = 1 if pool == "serial" else 2
                    map_parallel(_read_shared, range(4), workers=workers, shard=shard)
        samples, types = parse_prometheus(render_prometheus(reg))
        names = {s.name for s in samples}
        assert "repro_shm_arrays_registered" in names
        assert "repro_shm_leak_checks_total" in names
        assert "repro_shm_leak_checks_clean_total" in names
        assert types["repro_parallel_maps_total"] == "counter"
        if pool != "serial":
            assert "repro_parallel_utilization" in names
            assert types["repro_parallel_item_seconds"] == "histogram"
        if pool == "process":
            assert "repro_shm_attaches_total" in names
            assert types["repro_shm_attach_seconds"] == "histogram"
            assert types["repro_parallel_queue_wait_seconds"] == "histogram"
            assert types["repro_parallel_worker_busy_seconds"] == "histogram"
            workers = {
                s.labels["worker"]
                for s in samples
                if s.name == "repro_parallel_worker_busy_seconds_count"
            }
            assert workers and workers <= {"0", "1"}

    def test_labelled_histogram_family_renders_once(self):
        reg = MetricsRegistry()
        reg.observe("parallel.worker_busy_seconds[worker=0]", 0.5)
        reg.observe("parallel.worker_busy_seconds[worker=1]", 0.25)
        text = render_prometheus(reg)
        assert (
            text.count("# TYPE repro_parallel_worker_busy_seconds histogram")
            == 1
        )
        samples, __ = parse_prometheus(text)  # parser rejects duplicates
        counts = [
            s
            for s in samples
            if s.name == "repro_parallel_worker_busy_seconds_count"
        ]
        assert {s.labels["worker"] for s in counts} == {"0", "1"}


# ------------------------------------------------- the work picks the pool
@pytest.fixture(scope="module")
def city():
    """A small simulated city: (road_graph, segment midpoints)."""
    network, densities = small_network(seed=7)
    network.set_densities(densities)
    return build_road_graph(network), segment_midpoints(network)


def _traced(build):
    """Run ``build()`` under a tracer and registry: (worker spans, gauges)."""
    reg = MetricsRegistry()
    tracer = Tracer()
    with use_registry(reg), activate_tracer(tracer):
        with tracer.span("run"):
            build()
    spans, workers = list(tracer.roots), []
    while spans:
        span = spans.pop()
        spans.extend(span.children)
        if span.name.startswith("worker:"):
            workers.append(span)
    return workers, reg.to_dict()["gauges"]


class TestPoolFollowsTheWork:
    def test_sharded_build_mines_in_processes(self, city):
        graph, points = city
        builder = ShardedSupergraphBuilder(n_shards=4, seed=11, workers=2)
        workers, gauges = _traced(lambda: builder.build(graph, points=points))
        assert len(workers) == 4
        assert all(span.attrs["pid"] != os.getpid() for span in workers)
        assert all("worker" in span.attrs for span in workers)
        assert gauges["parallel.workers_used"] >= 1

    def test_unsharded_build_stays_in_process(self, city):
        graph, __ = city
        builder = SupergraphBuilder(seed=11, workers=2)
        workers, gauges = _traced(lambda: builder.build(graph))
        assert workers == []
        assert "parallel.workers_used" not in gauges
        assert gauges["parallel.workers"] == 2  # the threads did run

    def test_kappa_scan_stays_in_process(self, city):
        graph, __ = city
        workers, gauges = _traced(
            lambda: scan_kappa(graph.features, kappa_max=12, workers=2)
        )
        assert workers == []
        assert "parallel.workers_used" not in gauges
        assert gauges["parallel.workers"] == 2
