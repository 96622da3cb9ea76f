"""Tests for benchmark history and regression gating (`repro.obs.bench`)."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    Comparison,
    append_history,
    compare_latest,
    flatten_numeric,
    history_record,
    load_history,
    machine_fingerprint,
    value_direction,
)
from repro.obs.manifest import run_manifest


def _payload(seconds, speedup=10.0):
    return {"dual": {"vectorized_s": seconds, "speedup": speedup, "n_edges": 100}}


class TestFlatten:
    def test_nested_dotted_keys(self):
        flat = flatten_numeric({"a": {"b": 1.5, "c": {"d": 2}}, "e": 3})
        assert flat == {"a.b": 1.5, "a.c.d": 2.0, "e": 3.0}

    def test_non_numeric_and_provenance_dropped(self):
        flat = flatten_numeric(
            {"name": "x", "ok": True, "provenance": {"t_s": 9.0}, "v_s": 1.0}
        )
        assert flat == {"v_s": 1.0}

    def test_direction_heuristics(self):
        assert value_direction("dual.vectorized_s") == "lower"
        assert value_direction("full.seconds") == "lower"
        assert value_direction("total_time") == "lower"
        assert value_direction("dual.speedup") == "higher"
        assert value_direction("n_segments") is None
        assert value_direction("best_kappa") is None

    def test_reference_timings_never_gated(self):
        # reference implementations are kept deliberately slow; their
        # wall time is informational, only the speedup ratio gates
        assert value_direction("scan.reference_s") is None
        assert value_direction("nd.reference_broadcast_s") is None


class TestHistoryFile:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        record = append_history("bench_a", _payload(1.0), path=path)
        assert record["bench"] == "bench_a"
        assert record["values"]["dual.vectorized_s"] == 1.0
        assert record["manifest"]["schema_version"] >= 1
        records, corrupt = load_history(path)
        assert corrupt == 0
        assert len(records) == 1
        assert records[0]["fingerprint"] == machine_fingerprint(record["manifest"])

    def test_missing_file_is_empty_history(self, tmp_path):
        records, corrupt = load_history(tmp_path / "nope.jsonl")
        assert records == [] and corrupt == 0

    def test_corrupt_lines_tolerated(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history("bench_a", _payload(1.0), path=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a kill -9\n")
            fh.write('"a json string, not an object"\n')
            fh.write('{"no_bench_key": 1}\n')
        append_history("bench_a", _payload(1.1), path=path)
        records, corrupt = load_history(path)
        assert len(records) == 2
        assert corrupt == 3

    def test_record_uses_payload_provenance(self):
        manifest = run_manifest(extra={"bench": "b"})
        payload = dict(_payload(1.0), provenance=manifest)
        record = history_record("b", payload)
        assert record["manifest"] is manifest
        assert "provenance" not in record["values"]


class TestCompare:
    def _history(self, path, seconds_list, bench="bench_a"):
        for seconds in seconds_list:
            append_history(bench, _payload(seconds), path=path)
        records, __ = load_history(path)
        return records

    def test_no_regression_on_stable_timings(self, tmp_path):
        records = self._history(tmp_path / "h.jsonl", [1.0, 1.05, 0.95, 1.02])
        summary = compare_latest(records)
        assert summary.ok
        keys = {c.key for c in summary.comparisons}
        assert keys == {"dual.vectorized_s", "dual.speedup"}
        assert all(c.method.startswith("median-of") for c in summary.comparisons)

    def test_injected_slowdown_flagged(self, tmp_path):
        records = self._history(tmp_path / "h.jsonl", [1.0, 1.05, 0.95, 3.0])
        summary = compare_latest(records, tolerance=0.25)
        assert not summary.ok
        regression = summary.regressions[0]
        assert regression.key == "dual.vectorized_s"
        assert regression.direction == "lower"
        assert regression.ratio > 2.5

    def test_speedup_drop_flagged(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for speedup in (10.0, 11.0, 10.5):
            append_history("b", _payload(1.0, speedup=speedup), path=path)
        append_history("b", _payload(1.0, speedup=4.0), path=path)
        records, __ = load_history(path)
        summary = compare_latest(records)
        assert [c.key for c in summary.regressions] == ["dual.speedup"]

    def test_short_history_uses_best_of_n(self, tmp_path):
        # one noisy-slow prior run + one fast: best-of-N gates against
        # the fast one
        records = self._history(tmp_path / "h.jsonl", [2.0, 1.0, 1.1])
        summary = compare_latest(records)
        timing = next(c for c in summary.comparisons if c.key == "dual.vectorized_s")
        assert timing.method == "best-of-2"
        assert timing.baseline == 1.0
        assert not timing.regressed  # 1.1 within 25% of 1.0

    def test_single_record_groups_skipped(self, tmp_path):
        records = self._history(tmp_path / "h.jsonl", [1.0])
        summary = compare_latest(records)
        assert summary.comparisons == []
        assert summary.skipped_benches == ["bench_a"]

    def test_groups_isolated_by_bench(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for seconds in (1.0, 1.0, 1.0):
            append_history("fast_bench", _payload(seconds), path=path)
        append_history("slow_bench", _payload(9.0), path=path)
        append_history("slow_bench", _payload(9.1), path=path)
        records, __ = load_history(path)
        summary = compare_latest(records)
        assert summary.ok  # slow_bench is only compared to itself
        summary_one = compare_latest(records, bench="slow_bench")
        assert {c.bench for c in summary_one.comparisons} == {"slow_bench"}

    def test_tolerance_band_respected(self, tmp_path):
        records = self._history(tmp_path / "h.jsonl", [1.0, 1.0, 1.0, 1.2])
        assert compare_latest(records, tolerance=0.25).ok
        assert not compare_latest(records, tolerance=0.1).ok

    def test_fingerprint_groups_machines_apart(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history("b", _payload(1.0), path=path)
        append_history("b", _payload(1.0), path=path)
        records, __ = load_history(path)
        # fake a different machine for the newest, slower record
        slow = history_record("b", _payload(9.0))
        slow["fingerprint"] = "other-machine"
        records.append(slow)
        summary = compare_latest(records)
        assert summary.ok  # the slow record has no comparable history

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            compare_latest([], tolerance=-0.1)

    def test_comparison_describe_mentions_verdict(self):
        comparison = Comparison(
            bench="b", fingerprint="f", key="x_s", current=2.0, baseline=1.0,
            direction="lower", method="median-of-3", n_history=3,
            tolerance=0.25, regressed=True, ratio=2.0,
        )
        assert "REGRESSION" in comparison.describe()


class TestCli:
    def _seed_history(self, path, seconds_list):
        for seconds in seconds_list:
            append_history("bench_a", _payload(seconds), path=path)

    def test_exit_0_on_clean_history(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        self._seed_history(path, [1.0, 1.02, 0.98, 1.01])
        assert main(["bench", "compare", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_exit_1_on_injected_regression(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        self._seed_history(path, [1.0, 1.02, 0.98, 3.0])
        assert main(["bench", "compare", "--history", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_2_when_no_history(self, tmp_path):
        assert main(["bench", "compare", "--history", str(tmp_path / "x.jsonl")]) == 2

    def test_exit_2_when_nothing_comparable(self, tmp_path):
        path = tmp_path / "h.jsonl"
        self._seed_history(path, [1.0])  # single run: no baseline yet
        assert main(["bench", "compare", "--history", str(path)]) == 2

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        self._seed_history(path, [1.0, 1.0, 1.0, 5.0])
        assert main(["bench", "compare", "--history", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_regressions"] >= 1
        assert payload["comparisons"][0]["bench"] == "bench_a"

    def test_tolerance_flag(self, tmp_path):
        path = tmp_path / "h.jsonl"
        self._seed_history(path, [1.0, 1.0, 1.0, 1.2])
        assert main(["bench", "compare", "--history", str(path)]) == 0
        assert (
            main(["bench", "compare", "--history", str(path), "--tolerance", "0.05"])
            == 1
        )


class TestBenchMemoryGate:
    @pytest.mark.parametrize(
        "key",
        ["x.max_rss_bytes", "peak_alloc_bytes", "pipeline.mem_bytes"],
    )
    def test_memory_keys_gate_lower(self, key):
        assert value_direction(key) == "lower"

    def test_plain_bytes_not_gated(self):
        assert value_direction("payload.size_bytes") is None

    def test_timing_keys_unaffected(self):
        assert value_direction("module2.wall_s") == "lower"
        assert value_direction("scan.speedup") == "higher"
