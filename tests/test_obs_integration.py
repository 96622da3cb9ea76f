"""End-to-end observability: a full framework run emits a coherent
trace tree, a non-empty metrics dump, run-scoped logs and a manifest."""

import json
import logging

import pytest

from repro import ObsContext, SpatialPartitioningFramework, observe_run, small_network
from repro.obs.trace import validate_chrome_trace
from repro.obs.logs import configure_logging, get_logger
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION
from repro.pipeline.persistence import result_from_dict, result_to_dict
from repro.pipeline.schemes import run_scheme


@pytest.fixture(scope="module")
def observed_run():
    network, densities = small_network(seed=7)
    obs = ObsContext(dataset="small", scheme="ASG")
    framework = SpatialPartitioningFramework(k=4, scheme="ASG", seed=7, obs=obs)
    result = framework.partition(network, densities)
    return obs, framework, result


class TestTraceTree:
    def test_run_span_contains_modules(self, observed_run):
        obs, __, __r = observed_run
        tree = obs.trace_tree()
        assert [s["name"] for s in tree["spans"]] == ["run"]
        run = tree["spans"][0]
        child_names = [c["name"] for c in run["children"]]
        assert child_names == ["module1", "module2", "module3"]
        assert run["attrs"]["scheme"] == "ASG"
        assert run["attrs"]["k"] == 4

    def test_module2_has_fine_grained_children(self, observed_run):
        obs, __, __r = observed_run
        run = obs.trace_tree()["spans"][0]
        module2 = next(c for c in run["children"] if c["name"] == "module2")
        grandchildren = {g["name"] for g in module2.get("children", [])}
        # the builder's ModuleTimer sub-timings nest under module2
        assert any(name.startswith("module2.") for name in grandchildren)

    def test_chrome_trace_is_valid_and_serialisable(self, observed_run):
        obs, __, __r = observed_run
        doc = obs.chrome_trace()
        validate_chrome_trace(doc)
        json.dumps(doc)  # must round-trip without custom encoders
        assert doc["otherData"]["run_id"] == obs.run_id
        assert doc["otherData"]["dataset"] == "small"

    def test_durations_nest_within_parents(self, observed_run):
        obs, __, __r = observed_run
        run = obs.trace_tree()["spans"][0]
        child_total = sum(c["duration_s"] for c in run["children"])
        assert child_total <= run["duration_s"] * 1.01 + 1e-6


class TestMetricsDump:
    def test_core_counter_families_present(self, observed_run):
        obs, __, __r = observed_run
        counters = obs.metrics_dict()["counters"]
        assert counters["kappa_scan.candidates"] > 0
        assert counters["kmeans1d.iterations"] > 0
        assert counters["supergraph.builds"] == 1
        assert counters["eigensolver.dense_calls"] + counters.get(
            "eigensolver.arpack_calls", 0
        ) > 0

    def test_gauges_reflect_run_shape(self, observed_run):
        obs, framework, __r = observed_run
        gauges = obs.metrics_dict()["gauges"]
        assert gauges["graph.n_nodes"] == framework.last_road_graph.n_nodes
        assert gauges["supergraph.n_supernodes"] >= 1
        assert gauges["kappa_scan.best_kappa"] >= 2

    def test_write_metrics_payload(self, observed_run, tmp_path):
        obs, framework, __r = observed_run
        path = obs.write_metrics(
            tmp_path / "metrics.json", config=framework.config_dict(), seed=7
        )
        payload = json.loads(path.read_text())
        assert payload["run_id"] == obs.run_id
        assert payload["manifest"]["config"]["scheme"] == "ASG"
        assert payload["metrics"]["counters"]


class TestManifest:
    def test_result_carries_manifest(self, observed_run):
        obs, __, result = observed_run
        manifest = result.manifest
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["run_id"] == obs.run_id
        assert manifest["seed"] == 7
        assert manifest["config"]["k"] == 4
        assert "python" in manifest["versions"]
        assert "numpy" in manifest["versions"]

    def test_manifest_without_obs(self):
        network, densities = small_network(seed=3)
        framework = SpatialPartitioningFramework(k=3, scheme="AG", seed=3)
        result = framework.partition(network, densities)
        assert result.manifest is not None
        assert result.manifest["config"]["scheme"] == "AG"
        # a run id is still generated so the manifest is self-contained
        assert result.manifest["run_id"]

    def test_manifest_round_trips_persistence(self, observed_run):
        __, __f, result = observed_run
        restored = result_from_dict(result_to_dict(result))
        assert restored.manifest == result.manifest


class TestObserveRunHelper:
    def test_ad_hoc_observation(self):
        from repro.network.dual import build_road_graph

        network, densities = small_network(seed=5)
        graph = build_road_graph(network).with_features(densities)
        with observe_run(dataset="small", scheme="AG", note="adhoc") as obs:
            run_scheme("AG", graph, 3, seed=5)
        assert obs.metrics_dict()["gauges"]["graph.n_nodes"] == graph.n_nodes
        assert obs.chrome_trace()["otherData"]["note"] == "adhoc"


class TestLogging:
    def test_log_records_carry_run_context(self):
        import io

        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        try:
            with observe_run(dataset="D-test", scheme="NSG") as obs:
                get_logger("test").info("hello from the run")
            text = stream.getvalue()
            assert "hello from the run" in text
            assert obs.run_id in text
            assert "D-test" in text
        finally:
            configure_logging(level="warning")  # restore a quiet default

    def test_configure_logging_is_idempotent(self):
        configure_logging(level="warning")
        configure_logging(level="warning")
        root = logging.getLogger("repro")
        marked = [
            h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
