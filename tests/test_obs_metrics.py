"""Tests for repro.obs.metrics — registry, ambient helpers, histograms."""

import threading

import pytest

from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    current_registry,
    incr,
    metrics_enabled,
    observe,
    process_max_rss_bytes,
    process_rss_bytes,
    sample_process_gauges,
    set_gauge,
    use_registry,
)


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("scans")
        reg.inc("scans", 4)
        assert reg.counter("scans") == 5.0
        assert reg.counter("missing") == 0.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("kappa", 3)
        reg.set_gauge("kappa", 7)
        assert reg.gauge("kappa") == 7.0
        assert reg.gauge("missing") is None

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("work_s", v)
        hist = reg.histogram("work_s")
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("b", 2)
        reg.observe("c", 0.5)
        snap = reg.to_dict()
        assert snap["counters"] == {"a": 1.0}
        assert snap["gauges"] == {"b": 2.0}
        assert snap["histograms"]["c"]["count"] == 1
        assert len(reg) == 3

    def test_thread_safety_of_counters(self):
        reg = MetricsRegistry()

        def work():
            for __ in range(1000):
                reg.inc("hits")

        threads = [threading.Thread(target=work) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits") == 4000.0


class TestHistogramBuckets:
    def test_power_of_two_buckets(self):
        hist = Histogram()
        hist.observe(0.75)   # 2^0 bucket (0.5 < v <= 1)
        hist.observe(3.0)    # 2^2 bucket (2 < v <= 4)
        hist.observe(0.0)    # non-positive bucket
        assert hist.buckets["2^0"] == 1
        assert hist.buckets["2^2"] == 1
        assert hist.buckets["<=0"] == 1

    def test_empty_histogram_dict(self):
        d = Histogram().to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["mean"] == 0.0


class TestAmbientHelpers:
    def test_disabled_by_default(self):
        assert current_registry() is None
        assert not metrics_enabled()
        # all helpers are silent no-ops without a registry
        incr("nothing")
        set_gauge("nothing", 1)
        observe("nothing", 1)

    def test_use_registry_scopes(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_registry() is reg
            assert metrics_enabled()
            incr("hits", 2)
            set_gauge("level", 9)
            observe("dt", 0.1)
        assert current_registry() is None
        assert reg.counter("hits") == 2.0
        assert reg.gauge("level") == 9.0
        assert reg.histogram("dt").count == 1

    def test_nested_registries_restore_outer(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                incr("x")
            incr("x")
        assert inner.counter("x") == 1.0
        assert outer.counter("x") == 1.0


class TestInstrumentedAlgorithms:
    """The algorithm layers record facts only when a registry is active."""

    def test_kmeans_records_iterations(self):
        import numpy as np

        from repro.clustering.kmeans import kmeans_1d

        reg = MetricsRegistry()
        values = np.random.default_rng(0).normal(size=200)
        with use_registry(reg):
            kmeans_1d(values, 4)
        assert reg.counter("kmeans1d.fits") == 1.0
        assert reg.counter("kmeans1d.iterations") >= 1.0

    def test_kappa_scan_records_candidates(self):
        import numpy as np

        from repro.clustering.optimality import scan_kappa

        reg = MetricsRegistry()
        values = np.random.default_rng(1).gamma(2.0, 0.02, size=300)
        with use_registry(reg):
            scan_kappa(values, 8)
        assert reg.counter("kappa_scan.candidates") > 0
        assert reg.gauge("kappa_scan.best_kappa") >= 2

    def test_no_metrics_leak_without_registry(self):
        import numpy as np

        from repro.clustering.kmeans import kmeans_1d

        reg = MetricsRegistry()
        values = np.random.default_rng(2).normal(size=100)
        kmeans_1d(values, 3)  # no registry active
        assert reg.counter("kmeans1d.fits") == 0.0


class TestProcessGauges:
    def test_rss_helpers_positive_on_linux(self):
        rss = process_rss_bytes()
        peak = process_max_rss_bytes()
        assert rss is None or rss > 0
        assert peak is None or peak > 0

    def test_gauges_land_in_prometheus_exposition(self):
        registry = MetricsRegistry()
        sample_process_gauges(registry)
        text = render_prometheus(registry.to_dict())
        samples, types = parse_prometheus(text)
        names = {s.name for s in samples}
        assert "repro_process_threads" in names
        # gc gauges carry the generation as a label
        gens = {
            s.labels.get("gen")
            for s in samples
            if s.name == "repro_process_gc_collections"
        }
        assert gens >= {"0", "1", "2"}
        assert types.get("repro_process_threads") == "gauge"

    def test_gc_generations_all_present(self):
        registry = MetricsRegistry()
        sample_process_gauges(registry)
        gauges = registry.to_dict()["gauges"]
        for gen in range(3):
            assert f"process.gc_collections[gen={gen}]" in gauges
