"""Tests for the Prometheus exposition layer.

The exposition renderer is held to the text-format rules by the
package's own strict parser: every golden test round-trips through
``parse_prometheus``. The served ``/metrics`` endpoint is tested with
the partition server (``tests/test_serve_observability.py``).
"""

import math

import pytest

from repro.obs.export import (
    escape_label_value,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_type(self):
        reg = MetricsRegistry()
        reg.inc("incremental.updates", 5)
        text = render_prometheus(reg)
        assert "# TYPE repro_incremental_updates_total counter" in text
        assert "repro_incremental_updates_total 5.0" in text

    def test_gauge_keeps_name(self):
        reg = MetricsRegistry()
        reg.set_gauge("graph.n_nodes", 144)
        text = render_prometheus(reg)
        assert "# TYPE repro_graph_n_nodes gauge" in text
        assert "repro_graph_n_nodes 144.0" in text

    def test_dots_sanitized_to_underscores(self):
        reg = MetricsRegistry()
        reg.inc("a.b-c.d e", 1)
        samples, __ = parse_prometheus(render_prometheus(reg))
        assert samples[0].name == "repro_a_b_c_d_e_total"

    def test_label_convention_parsed_out(self):
        reg = MetricsRegistry()
        reg.set_gauge("incremental.region_density[region=3]", 0.25)
        text = render_prometheus(reg)
        assert 'repro_incremental_region_density{region="3"} 0.25' in text

    def test_extra_labels_on_every_sample(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        reg.set_gauge("y", 2)
        samples, __ = parse_prometheus(
            render_prometheus(reg, extra_labels={"run_id": "r-1"})
        )
        assert all(s.labels.get("run_id") == "r-1" for s in samples)

    def test_label_escaping_round_trips(self):
        value = 'quo"te\\back\nnewline'
        escaped = escape_label_value(value)
        assert "\n" not in escaped
        reg = MetricsRegistry()
        reg.set_gauge(f"weird[note={value}]", 1.0)
        # the renderer escapes; the parser must recover the original
        samples, __ = parse_prometheus(render_prometheus(reg))
        assert samples[0].labels["note"] == value

    def test_namespace_configurable(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        text = render_prometheus(reg, namespace="urban")
        assert "urban_x_total" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_snapshot_dict_accepted(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        assert render_prometheus(reg.to_dict()) == render_prometheus(reg)


class TestHistogramExposition:
    def test_buckets_cumulative_and_inf_equals_count(self):
        reg = MetricsRegistry()
        for value in (0.001, 0.5, 0.5, 3.0, 100.0):
            reg.observe("latency_s", value)
        text = render_prometheus(reg)
        samples, types = parse_prometheus(text)  # parser enforces cumulativity
        assert types["repro_latency_s"] == "histogram"
        buckets = [s for s in samples if s.name == "repro_latency_s_bucket"]
        counts = [s.value for s in buckets if s.labels["le"] != "+Inf"]
        assert counts == sorted(counts)
        inf = next(s for s in buckets if s.labels["le"] == "+Inf")
        count = next(s for s in samples if s.name == "repro_latency_s_count")
        assert inf.value == count.value == 5
        total = next(s for s in samples if s.name == "repro_latency_s_sum")
        assert total.value == pytest.approx(104.001)

    def test_nonpositive_values_in_le_zero_bucket(self):
        reg = MetricsRegistry()
        reg.observe("delta", -2.0)
        reg.observe("delta", 4.0)
        samples, __ = parse_prometheus(render_prometheus(reg))
        zero = next(
            s
            for s in samples
            if s.name == "repro_delta_bucket" and s.labels["le"] == "0.0"
        )
        assert zero.value == 1

    def test_broken_cumulativity_rejected(self):
        bad = (
            "# TYPE x histogram\n"
            'x_bucket{le="1.0"} 5\n'
            'x_bucket{le="2.0"} 3\n'
            'x_bucket{le="+Inf"} 5\n'
            "x_sum 1\n"
            "x_count 5\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_prometheus(bad)

    def test_missing_inf_bucket_rejected(self):
        bad = "# TYPE x histogram\n" 'x_bucket{le="1.0"} 5\n' "x_count 5\nx_sum 2\n"
        with pytest.raises(ValueError, match="Inf"):
            parse_prometheus(bad)

    def test_labelled_histogram_family_renders_once(self):
        reg = MetricsRegistry()
        reg.observe("lookup_seconds[endpoint=single]", 0.5)
        reg.observe("lookup_seconds[endpoint=batch]", 0.25)
        text = render_prometheus(reg)
        assert text.count("# TYPE repro_lookup_seconds histogram") == 1
        samples, __ = parse_prometheus(text)  # parser rejects duplicates
        counts = [s for s in samples if s.name == "repro_lookup_seconds_count"]
        assert {s.labels["endpoint"] for s in counts} == {"single", "batch"}


class TestParser:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_prometheus("lonely_metric 1.0\n")

    def test_counter_without_total_rejected(self):
        with pytest.raises(ValueError, match="_total"):
            parse_prometheus("# TYPE foo counter\nfoo 1\n")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("# TYPE x gauge\n0bad 1\n")

    def test_bad_escape_rejected(self):
        with pytest.raises(ValueError, match="escape"):
            parse_prometheus('# TYPE x gauge\nx{a="\\q"} 1\n')

    def test_special_values(self):
        text = "# TYPE x gauge\nx +Inf\n# TYPE y gauge\ny NaN\n"
        samples, __ = parse_prometheus(text)
        assert samples[0].value == math.inf
        assert math.isnan(samples[1].value)


class TestQuantilesFromLatencies:
    def test_multi_quantile_matches_single(self):
        from repro.obs.export import quantiles_from_latencies

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        multi = quantiles_from_latencies(values, (0.0, 0.5, 0.9, 1.0))
        assert multi == [
            quantiles_from_latencies(values, (q,))[0] for q in (0.0, 0.5, 0.9, 1.0)
        ]
        assert multi == [1.0, 3.0, 5.0, 5.0]

    def test_empty_values_give_zeros(self):
        from repro.obs.export import quantiles_from_latencies

        assert quantiles_from_latencies([], (0.5, 0.99)) == [0.0, 0.0]

    def test_out_of_range_quantile_rejected(self):
        from repro.obs.export import quantiles_from_latencies

        with pytest.raises(ValueError):
            quantiles_from_latencies([1.0], (1.5,))
        with pytest.raises(ValueError):
            quantiles_from_latencies([1.0], (-0.1,))

    def test_unsorted_input_handled(self):
        from repro.obs.export import quantiles_from_latencies

        assert quantiles_from_latencies([9.0, 1.0], (0.5,)) == [1.0]
