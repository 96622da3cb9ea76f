"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.network.generators import grid_network
from repro.network.io import save_network_json
from repro.traffic.profiles import hotspot_profile


class TestPartitionCommand:
    def test_builtin_dataset(self, capsys):
        assert main(["partition", "D1", "-k", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "ans" in out

    def test_json_output(self, capsys):
        assert (
            main(["partition", "D1", "-k", "3", "--seed", "0", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert "metrics" in payload
        assert payload["connected"] in (True, False)

    def test_network_file(self, tmp_path, capsys):
        net = grid_network(5, 5, two_way=True)
        net.set_densities(hotspot_profile(net, seed=0))
        path = tmp_path / "net.json"
        save_network_json(net, path)
        assert main(["partition", str(path), "-k", "3", "--seed", "0"]) == 0

    def test_labels_out(self, tmp_path):
        out = tmp_path / "labels.csv"
        assert (
            main(
                [
                    "partition",
                    "D1",
                    "-k",
                    "3",
                    "--seed",
                    "0",
                    "--labels-out",
                    str(out),
                ]
            )
            == 0
        )
        labels = np.loadtxt(out, dtype=int)
        assert labels.max() + 1 == 3

    @pytest.mark.parametrize("shards", [None, 2])
    def test_labels_identical_across_worker_counts(self, tmp_path, shards):
        """``--workers 2`` (threads, or processes with ``--shards``)
        writes the same labels as ``--workers 1``."""
        labels = []
        for workers in (1, 2):
            out = tmp_path / f"labels-{workers}.csv"
            argv = ["partition", "D1", "-k", "4", "--seed", "0",
                    "--workers", str(workers), "--labels-out", str(out)]
            if shards is not None:
                argv += ["--shards", str(shards)]
            assert main(argv) == 0
            labels.append(np.loadtxt(out, dtype=int))
        np.testing.assert_array_equal(labels[0], labels[1])

    def test_scheme_choice(self, capsys):
        assert main(["partition", "D1", "-k", "3", "--scheme", "NG"]) == 0
        assert "NG" in capsys.readouterr().out

    def test_json_stdout_is_pipeable(self, tmp_path, capsys):
        """With --json, stdout must be exactly one parseable JSON doc
        even when side outputs and observability flags are in play."""
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        labels = tmp_path / "labels.csv"
        code = main(
            [
                "--log-level", "info",
                "partition", "D1", "-k", "3", "--seed", "0", "--json",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "--labels-out", str(labels),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # would fail on any stray print
        assert payload["k"] == 3
        assert payload["run_id"]
        assert payload["manifest"]["config"]["scheme"] == "ASG"
        # the "wrote ..." diagnostics went to stderr instead
        assert "wrote" in captured.err

    def test_trace_and_metrics_outputs(self, tmp_path):
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "partition", "D1", "-k", "4", "--seed", "1", "--json",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        trace_doc = json.loads(trace.read_text())
        validate_chrome_trace(trace_doc)
        names = {ev["name"] for ev in trace_doc["traceEvents"]}
        assert {"run", "module1", "module2", "module3"} <= names
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["metrics"]["counters"]["supergraph.builds"] == 1
        assert metrics_doc["run_id"] == trace_doc["otherData"]["run_id"]

    def test_no_obs_files_without_flags(self, capsys):
        assert main(["partition", "D1", "-k", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] is None  # no ObsContext was created

    def test_bad_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["partition", "D1", "--scheme", "XX"])


class TestSimulateCommand:
    def test_writes_series(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = main(
            [
                "simulate",
                "D1",
                "--vehicles",
                "100",
                "--steps",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        series = np.loadtxt(out, delimiter=",")
        assert series.shape[0] == 10


class TestDatasetsCommand:
    def test_lists_requested_datasets(self, capsys):
        assert main(["datasets", "D1", "M1-small"]) == 0
        out = capsys.readouterr().out
        assert "D1" in out and "M1-small" in out

    def test_unknown_dataset_fails(self, capsys):
        assert main(["datasets", "D9"]) == 1
        # diagnostics go to stderr so stdout stays pipeable
        assert "unknown" in capsys.readouterr().err


class TestProcessModePipesClean:
    """Worker-process diagnostics must never land on stdout.

    Runs the CLI as a real subprocess — pool workers inherit the
    process-level stdout fd, which in-process capsys capture cannot
    see — and asserts ``--json`` output stays machine-parseable when
    ``--workers 2 --shards 2`` mines the shards in worker processes.
    """

    def test_json_stdout_is_pure_json(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "partition",
                "D1",
                "-k",
                "4",
                "--seed",
                "0",
                "--json",
                "--workers",
                "2",
                "--shards",
                "2",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)  # raises if diagnostics leaked
        assert payload["k"] == 4
        manifest = payload["manifest"]
        assert manifest["workers_resolved"] == 2
        assert manifest["n_shards_requested"] == 2
        assert manifest["n_shards_resolved"] == 2
        stages = manifest["stages"]
        assert stages["module1"]["pool"] == "serial"
        assert stages["module2"]["pool"] == "process"
        assert stages["module2"]["n_shards"] == manifest["n_shards_resolved"]
