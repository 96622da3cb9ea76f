"""Observability overhead: full pipeline with tracing+metrics vs without.

The obs layer (span tracing, metrics registry, run-scoped logging) is
ambient — leaf algorithms look up a ContextVar and do nothing when no
context is active. This bench quantifies the cost of the *enabled*
path on a paper-scale run: the full three-module ASG pipeline on a
~50k-segment synthetic city with spatially smooth hotspot densities
(i.i.d. densities would explode the supernode count and benchmark the
spectral stage instead of the instrumentation).

Asserts

* the Chrome trace emitted by the observed run is well-formed
  (``validate_chrome_trace``) and contains the module spans;
* the metrics dump includes the kappa-scan, k-means-iteration,
  supernode, and refinement counter families;
* enabling observability — span tracing, metrics, *and* the solver
  convergence telemetry the iterative kernels attach to spans — costs
  < 5% wall-clock (best-of-N on both sides, interleaved to share
  thermal/cache conditions); with obs off the telemetry is a single
  ``convergence_enabled`` contextvar check per solver run, so the
  unobserved side's ``best_off_s`` history gate doubles as the ~0%
  disabled-cost gate;
* the trace analysis layer holds on a paper-scale trace: the
  critical path's per-stage self times account for the wall clock
  within 10%, the ``eigensolve`` span ranks among the optimization
  targets, and convergence traces are harvested for every instrumented
  solver family;
* the observed run stays within 1% of the unobserved one: the span
  push/pop path must never show up in the wall clock.

Writes ``benchmarks/results/bench_obs_overhead.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table, save_results
from repro.core.boundary_refine import boundary_refine
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.obs import ObsContext
from repro.obs.trace import validate_chrome_trace
from repro.pipeline.schemes import run_scheme
from repro.traffic.profiles import hotspot_profile

GRID_SIDE = 115  # 115 x 115 two-way grid -> 52 440 directed segments
K = 8
REPEATS = 2  # per side, interleaved; best-of is compared

# counter families the metrics dump must report on a full run
REQUIRED_COUNTER_PREFIXES = (
    "kappa_scan.",
    "kmeans1d.iterations",
    "supergraph.",
    "boundary_refine.",
)

# absolute slack (seconds) so the 5% relative bound is meaningful even
# if the run happens to be very fast on a given machine
ABS_SLACK_S = 0.25


@pytest.fixture(scope="module")
def synthetic_city():
    network = grid_network(GRID_SIDE, GRID_SIDE, two_way=True)
    densities = hotspot_profile(network, n_hotspots=6, seed=3)
    network.set_densities(densities)
    graph = build_road_graph(network).with_features(densities)
    return graph


def _run_pipeline(graph, obs=None):
    """One full observed/unobserved ASG run incl. boundary refinement."""
    if obs is None:
        result = run_scheme("ASG", graph, K, seed=0)
        boundary_refine(
            graph.adjacency, graph.features, result.labels, max_sweeps=1
        )
        return result
    with obs.activate():
        with obs.tracer.span("run", scheme="ASG", k=K):
            result = run_scheme("ASG", graph, K, seed=0)
            boundary_refine(
                graph.adjacency, graph.features, result.labels, max_sweeps=1
            )
    return result


def test_bench_obs_overhead(synthetic_city):
    graph = synthetic_city

    off_times, on_times = [], []
    observed = None
    for __ in range(REPEATS):
        start = time.perf_counter()
        baseline = _run_pipeline(graph)
        off_times.append(time.perf_counter() - start)

        observed = ObsContext(dataset="grid-115", scheme="ASG")
        start = time.perf_counter()
        result = _run_pipeline(graph, obs=observed)
        on_times.append(time.perf_counter() - start)
        assert np.array_equal(result.labels, baseline.labels)

    # --- artifact validity -------------------------------------------
    trace = observed.chrome_trace()
    validate_chrome_trace(trace)
    span_names = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
    assert "run" in span_names
    assert "module2" in span_names and "module3" in span_names

    metrics = observed.metrics_dict()
    counters = metrics["counters"]
    for prefix in REQUIRED_COUNTER_PREFIXES:
        assert any(name.startswith(prefix) for name in counters), (
            f"metrics dump missing {prefix}* counters; has {sorted(counters)}"
        )
    assert counters["kappa_scan.candidates"] > 0
    assert counters["kmeans1d.iterations"] > 0
    # each repeat used a fresh ObsContext, so the dump covers one run
    assert counters["supergraph.builds"] == 1
    assert counters["boundary_refine.calls"] == 1

    # --- trace analysis holds at paper scale -------------------------
    from repro.obs.analyze import analyze_trace, validate_analysis

    analysis = analyze_trace(observed.tracer)
    validate_analysis(analysis.to_dict())
    # this run is serial: per-stage self times must reconstruct the
    # wall clock within 10%
    assert 0.9 <= analysis.coverage <= 1.1, (
        f"self-time coverage {analysis.coverage:.2f} strayed from wall clock"
    )
    target_names = {t["name"] for t in analysis.targets}
    assert "eigensolve" in target_names, (
        f"spectral eigensolve not ranked among targets: {sorted(target_names)}"
    )
    solver_families = {c["trace"]["solver"] for c in analysis.convergence}
    assert {"kmeans_1d", "kmeans_nd", "boundary_refine"} <= solver_families, (
        f"missing convergence telemetry; harvested {sorted(solver_families)}"
    )
    # the analysis reads identically from the serialized chrome trace
    chrome_analysis = analyze_trace(trace)
    assert {t["name"] for t in chrome_analysis.targets} == target_names

    # --- overhead bound ----------------------------------------------
    best_off, best_on = min(off_times), min(on_times)
    overhead = best_on / best_off - 1.0
    payload = {
        "n_segments": graph.n_nodes,
        "k": K,
        "repeats": REPEATS,
        "off_s": off_times,
        "on_s": on_times,
        "best_off_s": best_off,
        "best_on_s": best_on,
        "overhead_fraction": overhead,
        "n_trace_events": len(trace["traceEvents"]),
        "n_counters": len(counters),
        "n_convergence_traces": len(analysis.convergence),
        "analysis_coverage": analysis.coverage,
        "critical_path_depth": len(analysis.critical_path),
    }
    print_table(
        f"Obs overhead on {graph.n_nodes}-node graph (best of {REPEATS})",
        ["variant", "best_s"],
        [
            ["obs off", best_off],
            ["obs on", best_on],
        ],
    )
    print(f"overhead: {overhead * 100:.2f}%")
    save_results("bench_obs_overhead", payload)

    assert best_on <= best_off * 1.05 + ABS_SLACK_S, (
        f"observability overhead {overhead * 100:.1f}% exceeds 5% "
        f"({best_on:.3f}s vs {best_off:.3f}s)"
    )
    # the span push/pop path rides every observed run and must stay
    # under 1% of the pipeline
    assert best_on <= best_off * 1.01 + ABS_SLACK_S, (
        f"obs overhead {overhead * 100:.1f}% "
        f"exceeds 1% ({best_on:.3f}s vs {best_off:.3f}s)"
    )
