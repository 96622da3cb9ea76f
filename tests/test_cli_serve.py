"""End-to-end: ``repro serve`` as a subprocess, real sockets, SIGTERM.

Boots the server on an ephemeral port exactly as an operator would
(``python -m repro serve D1 --port 0``), talks to it over HTTP with
stdlib urllib, validates the ``/metrics`` payload with the strict
:func:`repro.obs.export.parse_prometheus`, and asserts the process
exits cleanly (code 0) on SIGTERM. Also covers the ``repro loadgen``
verb against the live server.
"""

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.obs.export import parse_prometheus

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _get(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        assert resp.status == 200
        return resp.read()


@pytest.fixture(scope="module")
def server():
    """A ``repro serve D1`` subprocess; yields its status line dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "D1", "-k", "4", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server died at startup: {proc.stderr.read()[-2000:]}"
            )
        status = json.loads(line)
        assert status["status"] == "serving"
        yield {"proc": proc, **status}
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)


class TestServeEndToEnd:
    def test_status_line_reports_the_bound_port(self, server):
        assert server["port"] > 0
        assert server["url"].endswith(str(server["port"]))
        assert server["n_segments"] == 436  # D1
        assert server["k"] == 4
        assert server["epoch"] == 1

    def test_single_lookup(self, server):
        payload = json.loads(_get(server["url"] + "/lookup?segment=17"))
        assert payload["segment"] == 17
        assert 0 <= payload["region"] < server["k"]
        assert payload["epoch"] == 1

    def test_point_lookup(self, server):
        payload = json.loads(_get(server["url"] + "/lookup?x=100&y=100"))
        assert 0 <= payload["segment"] < server["n_segments"]
        assert 0 <= payload["region"] < server["k"]

    def test_batch_get_and_post_agree(self, server):
        ids = [0, 5, 99, 400]
        got = json.loads(
            _get(server["url"] + "/batch?segments=" + ",".join(map(str, ids)))
        )
        req = urllib.request.Request(
            server["url"] + "/lookup/batch",
            data=json.dumps({"segments": ids}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            posted = json.loads(resp.read())
        assert got["regions"] == posted["regions"]
        assert len(got["regions"]) == len(ids)
        # and each batch element matches the single-lookup answer
        for sid, region in zip(ids, got["regions"]):
            single = json.loads(_get(server["url"] + f"/lookup?segment={sid}"))
            assert single["region"] == region

    def test_region_and_quality_endpoints(self, server):
        info = json.loads(_get(server["url"] + "/region/0"))
        assert info["region"] == 0
        assert info["n_segments"] > 0
        assert "bbox" in info
        boundary = json.loads(_get(server["url"] + "/region/0/boundary"))
        assert boundary["n_boundary_segments"] == len(boundary["segments"])
        quality = json.loads(_get(server["url"] + "/quality"))
        for key in ("k", "inter", "intra", "gdbi", "ans"):
            assert key in quality

    def test_bad_requests_get_400_not_a_crash(self, server):
        for path in (
            "/lookup?segment=not-a-number",
            "/lookup?segment=999999",
            "/lookup?x=1.0",  # missing y
            "/region/abc",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server["url"] + path)
            assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server["url"] + "/no-such-route")
        assert excinfo.value.code == 404
        # server is still healthy afterwards
        assert json.loads(_get(server["url"] + "/healthz"))["ok"] is True

    def test_metrics_pass_the_strict_parser(self, server):
        _get(server["url"] + "/lookup?segment=1")  # ensure traffic exists
        text = _get(server["url"] + "/metrics").decode("utf-8")
        samples, types = parse_prometheus(text)  # raises on any violation
        names = {s.name for s in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_lookups_total" in names
        assert "repro_serve_epoch" in names
        assert "repro_serve_qps" in names
        assert "repro_serve_latency_p99_s" in names
        assert types["repro_serve_request_latency_s"] == "histogram"
        for gauge in (
            "repro_process_rss_bytes",
            "repro_process_max_rss_bytes",
            "repro_process_threads",
            "repro_process_gc_collections",
        ):
            assert gauge in names
        lookups = next(
            s.value for s in samples if s.name == "repro_serve_lookups_total"
        )
        assert lookups >= 1

    def test_loadgen_verb_against_live_server(self, server, tmp_path):
        out_path = tmp_path / "loadgen.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--port", str(server["port"]),
                "--duration", "0.4", "--connections", "2", "--depth", "8",
                "--json", "--out", str(out_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        report = json.loads(result.stdout)
        assert report["n_errors"] == 0
        assert report["n_requests"] > 0
        assert report["qps"] > 0
        assert report["latency_p99_s"] >= report["latency_p50_s"]
        assert json.loads(out_path.read_text()) == report

    def test_sigterm_shuts_down_cleanly(self, server):
        # runs last in file order, but must hold regardless: kill the
        # server and require exit code 0 with no traceback on stderr
        proc = server["proc"]
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        stderr = proc.stderr.read()
        assert rc == 0, f"non-zero exit {rc}: {stderr[-2000:]}"
        assert "Traceback" not in stderr
        assert "server stopped" in stderr


@pytest.fixture(scope="module")
def observed_server():
    """A server subprocess with the full telemetry plane switched on.

    stderr is drained on a background thread — with every request
    group access-logged, an undrained pipe would fill and block the
    server's event loop mid-test.
    """
    import threading

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--log-level", "info",
            "serve", "D1", "-k", "4", "--port", "0",
            "--slo-latency-ms", "50",
            "--access-log-sample", "1.0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    stderr_lines: list = []
    drain = threading.Thread(
        target=lambda: stderr_lines.extend(proc.stderr), daemon=True
    )
    drain.start()
    try:
        line = proc.stdout.readline()
        if not line:
            drain.join(timeout=5)
            raise RuntimeError(
                "server died at startup: " + "".join(stderr_lines)[-2000:]
            )
        status = json.loads(line)
        assert status["status"] == "serving"
        yield {"proc": proc, "stderr_lines": stderr_lines, "drain": drain, **status}
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
        drain.join(timeout=5)


class TestObservedServeEndToEnd:
    def test_slo_endpoint_reports_both_objectives(self, observed_server):
        _get(observed_server["url"] + "/lookup?segment=1")
        doc = json.loads(_get(observed_server["url"] + "/slo"))
        assert doc["enabled"] is True
        names = {e["objective"]["name"] for e in doc["objectives"]}
        assert names == {"availability", "latency"}

    def test_loadgen_trace_ids_appear_in_server_spans(self, observed_server):
        """The propagation chain: loadgen stamps deterministic
        traceparent headers; the server's request-group spans must
        carry those exact trace ids."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--port", str(observed_server["port"]),
                "--duration", "0.4", "--connections", "2", "--depth", "4",
                "--seed", "7", "--json",
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        report = json.loads(result.stdout)
        assert len(report["trace_ids"]) == 2  # one per connection
        # the loadgen's post-run /slo fetch rides in the report
        assert report["slo"]["enabled"] is True

        doc = json.loads(_get(observed_server["url"] + "/trace"))
        assert doc["enabled"] is True
        seen = {s["attrs"].get("trace_id") for s in doc["spans"]}
        for trace_id in report["trace_ids"]:
            assert trace_id in seen, (trace_id, sorted(seen)[:5])
        span = next(
            s for s in doc["spans"]
            if s["attrs"].get("trace_id") == report["trace_ids"][0]
        )
        assert span["attrs"]["endpoint"] == "/lookup"
        assert span["attrs"]["status"] == 200
        assert span["attrs"]["epoch"] >= 1

    def test_slo_gauges_pass_the_strict_parser(self, observed_server):
        _get(observed_server["url"] + "/lookup?segment=1")
        text = _get(observed_server["url"] + "/metrics").decode("utf-8")
        samples, __ = parse_prometheus(text)
        names = {s.name for s in samples}
        for family in (
            "repro_slo_burn_rate",
            "repro_slo_error_budget_remaining",
            "repro_slo_burning",
        ):
            assert family in names, sorted(names)
        responses = [s for s in samples if s.name == "repro_serve_responses_total"]
        assert any(s.labels.get("status") == "200" for s in responses)

    def test_obs_slo_verb_exits_zero_within_budget(self, observed_server):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "obs", "slo",
                "--port", str(observed_server["port"]),
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "burning" in result.stdout

    def test_access_logs_go_to_stderr_not_stdout(self, observed_server):
        """--json consumers depend on stdout carrying exactly one JSON
        status line; the sampled access log must stay on stderr."""
        import time

        _get(observed_server["url"] + "/lookup?segment=2")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any("serve.access" in l for l in observed_server["stderr_lines"]):
                break
            time.sleep(0.05)
        logged = [
            l for l in observed_server["stderr_lines"] if "serve.access" in l
        ]
        assert logged, "no access log lines reached stderr"
        assert any("GET /lookup" in l for l in logged)
        assert any("trace_id=" in l for l in logged)

    def test_observed_sigterm_clean_and_only_status_on_stdout(
        self, observed_server
    ):
        proc = observed_server["proc"]
        _get(observed_server["url"] + "/lookup?segment=3")
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=15)
        observed_server["drain"].join(timeout=5)
        stdout_rest = proc.stdout.read()
        stderr = "".join(observed_server["stderr_lines"])
        assert rc == 0, f"non-zero exit {rc}: {stderr[-2000:]}"
        assert stdout_rest.strip() == ""  # only the status line on stdout
        assert "Traceback" not in stderr
