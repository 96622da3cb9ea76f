"""Unit tests for the SLO tracker (``repro.obs.slo``).

Everything runs against an injected fake clock, so the multi-window
burn-rate semantics — the part that guards the live serving plane —
are tested deterministically: burst-in-one-window must not trip the
multi-window rule, sustained errors across every window must.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import slo_window_counts
from repro.exceptions import DataError
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLObjective, SLOTracker, default_objectives


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracker(windows=(10.0, 60.0), objective=0.99, kind="availability",
                 threshold_s=None, clock=None):
    clock = clock or FakeClock()
    obj = SLObjective(
        name="t", kind=kind, objective=objective,
        threshold_s=threshold_s, windows_s=windows,
    )
    return SLOTracker([obj], clock=clock), clock


class TestSLObjective:
    def test_valid_objective_round_trips(self):
        obj = SLObjective(name="avail", kind="availability", objective=0.999)
        doc = obj.to_dict()
        assert doc["name"] == "avail"
        assert doc["objective"] == 0.999
        assert obj.budget == pytest.approx(0.001)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense", "objective": 0.9},
            {"kind": "availability", "objective": 0.0},
            {"kind": "availability", "objective": 1.0},
            {"kind": "latency", "objective": 0.9},  # missing threshold
            {"kind": "latency", "objective": 0.9, "threshold_s": -1.0},
            {"kind": "availability", "objective": 0.9, "windows_s": ()},
            {"kind": "availability", "objective": 0.9, "windows_s": (0.0,)},
            {"kind": "availability", "objective": 0.9, "burn_threshold": 0.0},
        ],
    )
    def test_invalid_objectives_rejected(self, kwargs):
        with pytest.raises(DataError):
            SLObjective(name="x", **kwargs)

    def test_tracker_rejects_empty_and_duplicate_names(self):
        with pytest.raises(DataError):
            SLOTracker([])
        obj = SLObjective(name="x", kind="availability", objective=0.9)
        with pytest.raises(DataError):
            SLOTracker([obj, obj])


class TestBurnRate:
    def test_idle_tracker_is_not_burning_and_budget_full(self):
        tracker, __ = make_tracker()
        assert tracker.burning() is False
        entry = tracker.evaluate()[0]
        assert entry["budget_remaining"] == 1.0
        for window in entry["windows"]:
            assert window["burn_rate"] == 0.0

    def test_all_good_traffic_not_burning(self):
        tracker, clock = make_tracker()
        for __ in range(20):
            tracker.record(0.001, ok=True, n=10)
            clock.advance(1.0)
        assert tracker.burning() is False
        assert tracker.evaluate()[0]["budget_remaining"] == 1.0

    def test_sustained_errors_burn_every_window(self):
        tracker, clock = make_tracker(windows=(5.0, 20.0), objective=0.99)
        # 50% errors for 25 s: error_rate 0.5 / budget 0.01 = burn 50
        for __ in range(25):
            tracker.record(0.001, ok=True, n=1)
            tracker.record(0.001, ok=False, n=1)
            clock.advance(1.0)
        entry = tracker.evaluate()[0]
        assert entry["burning"] is True
        for window in entry["windows"]:
            assert window["burn_rate"] == pytest.approx(50.0)
        assert entry["budget_remaining"] == 0.0
        assert tracker.burning() is True

    def test_short_burst_does_not_trip_the_long_window(self):
        """The multi-window rule: a 2 s error burst after a long clean
        stretch saturates the short window but not the long one."""
        tracker, clock = make_tracker(windows=(5.0, 60.0), objective=0.9)
        for __ in range(58):
            tracker.record(0.001, ok=True, n=100)
            clock.advance(1.0)
        for __ in range(2):
            tracker.record(0.001, ok=False, n=100)
            clock.advance(1.0)
        entry = tracker.evaluate()[0]
        short, long_ = entry["windows"]
        assert short["burn_rate"] > 1.0
        assert long_["burn_rate"] < 1.0
        assert entry["burning"] is False

    def test_window_with_no_traffic_blocks_burning(self):
        tracker, clock = make_tracker(windows=(5.0, 60.0))
        tracker.record(0.001, ok=False, n=10)
        clock.advance(50.0)  # the 5 s window is now empty
        tracker.record(0.001, ok=False, n=0)  # no-op
        entry = tracker.evaluate()[0]
        assert entry["windows"][0]["good"] + entry["windows"][0]["bad"] == 0
        assert entry["burning"] is False

    def test_old_samples_age_out_of_the_ring(self):
        tracker, clock = make_tracker(windows=(5.0, 10.0))
        tracker.record(0.001, ok=False, n=100)
        clock.advance(30.0)  # beyond the longest window + ring size
        tracker.record(0.001, ok=True, n=1)
        entry = tracker.evaluate()[0]
        assert all(w["bad"] == 0 for w in entry["windows"])
        assert entry["burning"] is False

    def test_latency_kind_counts_slow_requests_as_bad(self):
        tracker, clock = make_tracker(
            windows=(5.0, 10.0), objective=0.5, kind="latency", threshold_s=0.01
        )
        for __ in range(12):
            tracker.record(0.5, ok=True, n=1)  # ok but slow -> bad
            clock.advance(1.0)
        entry = tracker.evaluate()[0]
        assert entry["burning"] is True
        assert entry["windows"][0]["error_rate"] == 1.0

    def test_latency_kind_fast_requests_are_good(self):
        tracker, clock = make_tracker(
            windows=(5.0, 10.0), objective=0.5, kind="latency", threshold_s=0.01
        )
        for __ in range(12):
            tracker.record(0.001, ok=True, n=1)
            clock.advance(1.0)
        assert tracker.burning() is False

    def test_record_nonpositive_n_is_noop(self):
        tracker, __ = make_tracker()
        tracker.record(0.001, ok=False, n=0)
        tracker.record(0.001, ok=False, n=-5)
        entry = tracker.evaluate()[0]
        assert all(w["good"] + w["bad"] == 0 for w in entry["windows"])


# one step of a fake-clock session: advance the clock by ``dt``, then
# either record an event (latency, n_good, n_bad) or evaluate (None)
_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([0.001, 0.01, 0.05]),
                st.integers(0, 5),
                st.integers(0, 5),
            ),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestAgainstBruteForce:
    @given(
        steps=_steps,
        windows=st.sampled_from([(1.0,), (2.5, 7.0), (5.0, 20.0)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_evaluate_matches_a_scan_over_the_events(self, steps, windows):
        clock = FakeClock(start=0.0)
        objectives = [
            SLObjective(name="a", kind="availability", objective=0.9,
                        windows_s=windows),
            SLObjective(name="l", kind="latency", objective=0.9,
                        threshold_s=0.01, windows_s=windows),
        ]
        tracker = SLOTracker(objectives, clock=clock)
        events = []
        for dt, event in steps:
            clock.advance(dt)
            if event is not None:
                latency, n_good, n_bad = event
                tracker.record(latency, ok=True, n=n_good)
                tracker.record(latency, ok=False, n=n_bad)
                events.append((clock.now, latency, n_good, n_bad))
                continue
            for objective, entry in zip(objectives, tracker.evaluate()):
                expected = slo_window_counts(events, objective, clock.now)
                got = [(w["good"], w["bad"]) for w in entry["windows"]]
                assert got == expected
                burning = all(
                    good + bad
                    and bad / (good + bad) / objective.budget
                    > objective.burn_threshold
                    for good, bad in expected
                )
                assert entry["burning"] is burning


class TestExport:
    def test_gauges_pass_the_strict_prometheus_parser(self):
        tracker, clock = make_tracker(windows=(5.0, 20.0))
        for __ in range(25):
            tracker.record(0.001, ok=False, n=2)
            clock.advance(1.0)
        registry = MetricsRegistry()
        tracker.export_gauges(registry)
        samples, __t = parse_prometheus(render_prometheus(registry))
        names = {s.name for s in samples}
        assert "repro_slo_burn_rate" in names
        assert "repro_slo_error_budget_remaining" in names
        assert "repro_slo_burning" in names
        burns = [s for s in samples if s.name == "repro_slo_burn_rate"]
        assert {s.labels["window"] for s in burns} == {"5s", "20s"}
        assert all(s.labels["slo"] == "t" for s in burns)
        burning = next(s for s in samples if s.name == "repro_slo_burning")
        assert burning.value == 1.0

    def test_to_dict_is_the_slo_endpoint_payload(self):
        tracker, __ = make_tracker()
        doc = tracker.to_dict()
        assert doc["enabled"] is True
        assert doc["burning"] is False
        assert len(doc["objectives"]) == 1
        assert doc["objectives"][0]["objective"]["name"] == "t"


class TestDefaultObjectives:
    def test_standard_pair(self):
        objectives = default_objectives(0.010)
        assert [o.name for o in objectives] == ["availability", "latency"]
        avail, latency = objectives
        assert avail.kind == "availability"
        assert avail.objective == 0.999
        assert latency.kind == "latency"
        assert latency.threshold_s == 0.010
        assert latency.objective == 0.99
        # the pair boots a working tracker
        tracker = SLOTracker(objectives)
        assert tracker.burning() is False
