"""Tests for repro.obs.scaling: power-law fits over benchmark history.

Pins the log-log fitter (exact recovery of synthetic power laws, the
two-distinct-sizes floor), the prefix-scoped point harvest from
flattened history values, the report document with superlinear flags
and forecasts, the ``n_segments``/``n_supernodes`` size stamps that
``history_record`` lifts onto every record, and the ``repro obs
scaling`` CLI including its exit-2 nothing-to-fit contract.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import DataError
from repro.obs.bench import history_record
from repro.obs.scaling import (
    DEFAULT_FORECAST_N,
    FLAG_MIN_R2,
    FLAG_MIN_SIZES,
    SCALING_SCHEMA_VERSION,
    SUPERLINEAR_EXPONENT,
    collect_points,
    fit_power_law,
    fit_scaling,
    fit_scaling_from_history,
    render_scaling,
)


def _record(values):
    """Minimal well-formed history record around a values dict."""
    return {"bench": "synthetic", "values": dict(values)}


# ----------------------------------------------------------------------
# the fitter
class TestFitPowerLaw:
    def test_exact_recovery(self):
        ns = [100.0, 1_000.0, 10_000.0, 52_440.0]
        ts = [2e-6 * n**1.5 for n in ns]
        a, b, r2 = fit_power_law(ns, ts)
        assert a == pytest.approx(2e-6, rel=1e-9)
        assert b == pytest.approx(1.5, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_single_size_raises(self):
        with pytest.raises(DataError):
            fit_power_law([500.0, 500.0], [1.0, 1.1])

    def test_nonpositive_points_dropped(self):
        # zero-time and n<=1 points must not poison the log transform
        a, b, __ = fit_power_law([1.0, 0.0, 100.0, 1_000.0], [9.9, 0.0, 1.0, 10.0])
        assert b == pytest.approx(1.0, rel=1e-9)
        assert a == pytest.approx(0.01, rel=1e-9)

    def test_all_unusable_raises(self):
        with pytest.raises(DataError):
            fit_power_law([0.0, 1.0], [1.0, 1.0])

    @given(
        a=st.floats(min_value=1e-8, max_value=10.0, allow_nan=False),
        b=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_any_power_law(self, a, b):
        ns = [10.0, 100.0, 1_000.0]
        got_a, got_b, r2 = fit_power_law(ns, [a * n**b for n in ns])
        assert got_b == pytest.approx(b, rel=1e-6)
        assert got_a == pytest.approx(a, rel=1e-5)
        assert r2 == pytest.approx(1.0)


# ----------------------------------------------------------------------
# point harvesting
class TestCollectPoints:
    def test_prefix_scoping(self):
        # D1.* sized by D1.segments, M1.* by M1.segments, bare leaves
        # by the top-level n_segments
        points = collect_points(
            [
                _record(
                    {
                        "D1.segments": 100,
                        "D1.module1": 1.0,
                        "M1.segments": 1_000,
                        "M1.module1": 5.0,
                        "n_segments": 1_000,
                        "total": 6.5,
                    }
                )
            ]
        )
        assert points["module1"] == [(100.0, 1.0), (1000.0, 5.0)]
        assert points["total"] == [(1000.0, 6.5)]

    def test_size_leaves_never_become_stages(self):
        points = collect_points(
            [_record({"n_segments": 500, "D1.segments": 100, "D1.total": 1.0})]
        )
        assert all("segments" not in stage for stage in points)

    def test_non_time_values_excluded(self):
        points = collect_points(
            [
                _record(
                    {
                        "n_segments": 500,
                        "total": 2.0,
                        "peak_bytes": 1e9,  # memory, wrong axis
                        "speedup": 3.0,  # higher-is-better, not a time
                        "n_supernodes": 40,  # a size, not a measurement
                    }
                )
            ]
        )
        assert set(points) == {"total"}

    def test_records_without_sizes_skipped(self):
        assert collect_points([_record({"total": 2.0}), {"no": "values"}]) == {}

    def test_points_accumulate_across_records(self):
        records = [
            _record({"n_segments": 100, "total": 1.0}),
            _record({"n_segments": 1_000, "total": 10.0}),
        ]
        assert collect_points(records)["total"] == [(100.0, 1.0), (1000.0, 10.0)]


# ----------------------------------------------------------------------
# the report
class TestFitScaling:
    def _multi_size_records(self, b=1.5):
        return [
            _record(
                {
                    f"{name}.segments": n,
                    f"{name}.module2": 1e-5 * n**b,
                    f"{name}.module1": 1e-5 * n,
                }
            )
            for name, n in [
                ("D1", 100),
                ("M1", 1_000),
                ("M2", 10_000),
                ("M3", 100_000),
            ]
        ]

    @staticmethod
    def _steep_records(sizes, noise):
        """``total ~ n^1.5`` at ``sizes``, each time scaled by ``noise``."""
        return [
            _record({"n_segments": n, "total": 1e-5 * n**1.5 * f})
            for n, f in zip(sizes, noise)
        ]

    def test_superlinear_flag_and_forecast(self):
        report = fit_scaling(self._multi_size_records(b=1.5), forecast_n=100_000)
        assert report["schema_version"] == SCALING_SCHEMA_VERSION
        by_stage = {s["stage"]: s for s in report["stages"]}
        assert by_stage["module2"]["superlinear"] is True
        assert by_stage["module2"]["b"] == pytest.approx(1.5, rel=1e-6)
        assert by_stage["module2"]["forecast_s"] == pytest.approx(
            1e-5 * 100_000**1.5, rel=1e-6
        )
        assert by_stage["module1"]["superlinear"] is False
        assert by_stage["module1"]["b"] == pytest.approx(1.0, rel=1e-6)
        # superlinear stage dominates the forecast -> sorted first
        assert report["stages"][0]["stage"] == "module2"

    def test_steep_fit_with_low_r2_is_not_flagged(self):
        sizes = [100, 300, 1_000, 3_000, 10_000]
        report = fit_scaling(self._steep_records(sizes, [1, 12, 0.15, 8, 1]))
        (total,) = report["stages"]
        assert total["b"] > SUPERLINEAR_EXPONENT
        assert total["r2"] < FLAG_MIN_R2
        assert total["distinct_sizes"] == 5
        assert total["superlinear"] is False
        text = render_scaling(report)
        assert "SUPERLINEAR" not in text
        assert "superlinear withheld" in text

    def test_steep_fit_over_three_sizes_is_not_flagged(self):
        sizes = [100, 1_000, 10_000]
        report = fit_scaling(self._steep_records(sizes, [1, 1, 1]))
        (total,) = report["stages"]
        assert total["b"] == pytest.approx(1.5, rel=1e-6)
        assert total["r2"] == pytest.approx(1.0)
        assert total["distinct_sizes"] == 3 < FLAG_MIN_SIZES
        assert total["superlinear"] is False
        assert "superlinear withheld" in render_scaling(report)

    def test_single_size_stage_lands_in_skipped(self):
        records = self._multi_size_records() + [
            _record({"n_segments": 500, "lonely_stage_s": 1.0})
        ]
        report = fit_scaling(records)
        assert {s["stage"] for s in report["skipped"]} == {"lonely_stage_s"}

    def test_bad_forecast_n_raises(self):
        with pytest.raises(DataError):
            fit_scaling(self._multi_size_records(), forecast_n=1)

    def test_render_mentions_stages_and_flags(self):
        text = render_scaling(fit_scaling(self._multi_size_records(b=1.8)))
        assert "module2" in text
        assert "SUPERLINEAR" in text
        assert "100,000" in text  # default forecast size
        assert DEFAULT_FORECAST_N == 100_000
        assert SUPERLINEAR_EXPONENT == pytest.approx(1.1)


# ----------------------------------------------------------------------
# history_record size stamps (the satellite this module consumes)
class TestHistorySizeStamps:
    def test_exact_top_level_key_wins(self):
        record = history_record(
            "t", {"n_segments": 52_440, "D1": {"segments": 100}}
        )
        assert record["n_segments"] == 52_440

    def test_max_over_dotted_leaves(self):
        record = history_record(
            "t",
            {
                "D1": {"segments": 100, "n_supernodes": 9},
                "M1": {"segments": 1_000, "n_supernodes": 80},
            },
        )
        assert record["n_segments"] == 1_000
        assert record["n_supernodes"] == 80

    def test_no_sizes_no_stamp(self):
        record = history_record("t", {"total": 1.0})
        assert "n_segments" not in record
        assert "n_supernodes" not in record

    def test_stamped_record_feeds_the_fitter(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with open(path, "w") as fh:
            for n in (100, 1_000, 10_000):
                record = history_record(
                    "table3", {"n_segments": n, "total": 1e-4 * n**1.2}
                )
                fh.write(json.dumps(record) + "\n")
        report = fit_scaling_from_history(path, bench="table3")
        assert report["stages"][0]["stage"] == "total"
        assert report["stages"][0]["b"] == pytest.approx(1.2, rel=1e-6)


# ----------------------------------------------------------------------
# CLI surface
class TestCli:
    def _history(self, tmp_path, records):
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_scaling_json_output(self, tmp_path, capsys):
        path = self._history(
            tmp_path,
            [
                _record({"n_segments": 100, "total": 0.5})
                | {"bench": "table3"},
                _record({"n_segments": 10_000, "total": 80.0})
                | {"bench": "table3"},
            ],
        )
        code = main(
            ["obs", "scaling", "--history", str(path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCALING_SCHEMA_VERSION
        assert payload["stages"][0]["stage"] == "total"

    def test_scaling_human_output_and_forecast_n(self, tmp_path, capsys):
        path = self._history(
            tmp_path,
            [
                _record({"n_segments": 100, "total": 0.5}),
                _record({"n_segments": 10_000, "total": 80.0}),
            ],
        )
        code = main(
            [
                "obs",
                "scaling",
                "--history",
                str(path),
                "--forecast-n",
                "100000",
            ]
        )
        assert code == 0
        assert "total" in capsys.readouterr().out

    def test_scaling_exit_2_when_nothing_to_fit(self, tmp_path, capsys):
        path = self._history(
            tmp_path, [_record({"n_segments": 100, "total": 0.5})]
        )
        assert main(["obs", "scaling", "--history", str(path)]) == 2

    def test_scaling_empty_history_exit_2(self, tmp_path):
        path = self._history(tmp_path, [])
        assert main(["obs", "scaling", "--history", str(path)]) == 2
