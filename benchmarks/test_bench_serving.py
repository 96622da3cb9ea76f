"""Serving benchmark: sustained lookup throughput and tail latency.

Boots a :class:`repro.serve.server.PartitionServer` on the full-scale
M2 synthetic network (~52k segments — the acceptance target of ROADMAP
item 1) and drives it with the pipelined load generator, exactly as
``repro loadgen`` would:

* **single mode** — ``GET /lookup?segment=N`` keep-alive lookups; the
  acceptance floor is >= 10k lookups/s sustained with p99 < 10 ms on
  one core;
* **batch mode** — ``POST /lookup/batch`` with 64-id batches, showing
  the coalescing headroom (one parse and one vectorised label take per
  pipelined group of batches);
* **point mode** — ``GET /lookup?x=..&y=..`` coordinate lookups, one
  kd-tree query per pipelined group.

The partition labels come from a kd-tree spatial split
(``tests/oracles.py::spatial_shards``) — the bench
measures the serving layer, not the partitioning algorithms, and
``spatial_shards`` gives a valid balanced labelling of 52k segments in
milliseconds.

Writes ``BENCH_serving.json`` at the repo root (plus the usual
``benchmarks/results`` copy + history append, which is what the CI
``serve-smoke`` job gates p99 regressions against). The throughput and
latency floors are always asserted; there is no multi-core
requirement — the target is explicitly single-machine, and the host
may well have one core (``n_cores`` is recorded).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from statistics import median

import pytest

from benchmarks.conftest import print_table, save_results
from repro.datasets.registry import load_dataset
from repro.network.dual import build_road_graph
from repro.serve import PartitionServer, SegmentIndex, SnapshotStore, run_loadgen
from tests.oracles import spatial_shards

ROOT_RESULTS = Path(__file__).parent.parent / "BENCH_serving.json"

DATASET = "M2"  # full-scale: ~52k directed segments
K = 16
DURATION_S = 3.0
CONNECTIONS = 4
DEPTH = 32
BATCH_SIZE = 64

LOOKUPS_PER_S_FLOOR = 10_000
P99_CEILING_S = 0.010

# the telemetry gate compares medians of this many alternating
# untraced/traced runs: one run per side is at the mercy of the host
# (untraced throughput of one tree moved between 107k and 198k
# lookups/s over 11 runs)
OVERHEAD_PAIRS = 5
OVERHEAD_RUN_S = 1.0


@pytest.fixture(scope="module")
def serving_stack():
    """(handle, store, n_segments) — a live server over M2 labels."""
    network, densities = load_dataset(DATASET, seed=3)
    points = network.segment_midpoints()
    labels = spatial_shards(points, K)
    graph = build_road_graph(network)
    index = SegmentIndex(
        labels, points=points, adjacency=graph.adjacency, features=densities
    )
    store = SnapshotStore()
    store.publish(index, meta={"dataset": DATASET, "labeller": "spatial_shards"})
    handle = PartitionServer(store).start_background()
    yield handle, store, network.n_segments
    handle.stop()
    store.close()


def test_bench_serving(serving_stack):
    handle, store, n_segments = serving_stack
    payload = {
        "dataset": DATASET,
        "n_segments": n_segments,
        "k": K,
        "n_cores": os.cpu_count() or 1,
        "connections": CONNECTIONS,
        "depth": DEPTH,
        "duration_s_target": DURATION_S,
    }

    # warm-up: first connections pay interpreter warm-up and page faults
    run_loadgen(
        "127.0.0.1", handle.port, n_segments=n_segments,
        mode="single", duration_s=0.5, connections=CONNECTIONS, depth=DEPTH,
    )

    rows = []
    for mode in ("single", "batch", "point"):
        report = run_loadgen(
            "127.0.0.1",
            handle.port,
            n_segments=n_segments,
            mode=mode,
            duration_s=DURATION_S,
            connections=CONNECTIONS,
            depth=DEPTH,
            batch_size=BATCH_SIZE,
            seed=1,
        )
        assert report.n_errors == 0, f"{mode}: {report.n_errors} failed requests"
        payload[mode] = report.to_dict()
        rows.append(
            [
                mode,
                report.n_requests,
                round(report.qps),
                round(report.lookups_per_s),
                report.p50_s * 1e3,
                report.p99_s * 1e3,
            ]
        )

    print_table(
        f"serving throughput ({DATASET}, {n_segments} segments, "
        f"{CONNECTIONS}x{DEPTH} in flight)",
        ["mode", "requests", "qps", "lookups/s", "p50_ms", "p99_ms"],
        rows,
    )

    single = payload["single"]
    # the acceptance floors (single-lookup traffic, one machine)
    assert single["lookups_per_s"] >= LOOKUPS_PER_S_FLOOR, (
        f"sustained {single['lookups_per_s']:.0f} lookups/s "
        f"< floor {LOOKUPS_PER_S_FLOOR}"
    )
    assert single["latency_p99_s"] < P99_CEILING_S, (
        f"p99 {single['latency_p99_s'] * 1e3:.2f} ms "
        f">= ceiling {P99_CEILING_S * 1e3:.0f} ms"
    )
    # batching must amortise: strictly more lookups/s than single mode
    assert payload["batch"]["lookups_per_s"] > single["lookups_per_s"]

    # every batch answered from exactly one epoch (server-side metric
    # sanity: the store only ever published one epoch here)
    assert store.last_epoch == 1

    # --- telemetry overhead: the same single-lookup traffic against a
    # server with the full request-telemetry plane attached (SLO
    # tracker + request tracing). The batched per-group design must
    # keep the fast path within 5% of the untraced throughput, compared
    # median to median over alternating runs.
    from repro.obs.slo import SLOTracker, default_objectives
    from repro.obs.trace import Tracer

    traced_server = PartitionServer(
        store, slo=SLOTracker(default_objectives(P99_CEILING_S)), tracer=Tracer()
    )
    traced_handle = traced_server.start_background()
    runs = {"untraced": [], "traced": []}
    try:
        run_loadgen(  # warm-up, same as the untraced server got
            "127.0.0.1", traced_handle.port, n_segments=n_segments,
            mode="single", duration_s=0.5, connections=CONNECTIONS, depth=DEPTH,
        )
        for __ in range(OVERHEAD_PAIRS):
            for side, server in (("untraced", handle), ("traced", traced_handle)):
                report = run_loadgen(
                    "127.0.0.1",
                    server.port,
                    n_segments=n_segments,
                    mode="single",
                    duration_s=OVERHEAD_RUN_S,
                    connections=CONNECTIONS,
                    depth=DEPTH,
                    seed=1,
                )
                assert report.n_errors == 0, f"{side}: {report.n_errors} failed requests"
                runs[side].append(report)
        assert traced_server.slo.burning() is False  # fast path within SLO
    finally:
        traced_handle.stop()
    rates = {side: [r.lookups_per_s for r in reports] for side, reports in runs.items()}
    untraced, traced = median(rates["untraced"]), median(rates["traced"])
    # the traced run at the median stands for the side in the history
    payload["traced"] = sorted(runs["traced"], key=lambda r: r.lookups_per_s)[
        OVERHEAD_PAIRS // 2
    ].to_dict()
    payload["telemetry_runs"] = {
        "run_s": OVERHEAD_RUN_S,
        "untraced_lookups_per_s": rates["untraced"],
        "traced_lookups_per_s": rates["traced"],
        "untraced_median_lookups_per_s": untraced,
        "traced_median_lookups_per_s": traced,
    }
    overhead = 1.0 - traced / max(untraced, 1e-9)
    payload["traced_overhead_frac"] = overhead
    print_table(
        f"request-telemetry overhead (single mode, {OVERHEAD_PAIRS} alternating "
        f"{OVERHEAD_RUN_S:g} s runs per side)",
        ["server", "median lookups/s", "min", "max"],
        [
            [side, round(median(values)), round(min(values)), round(max(values))]
            for side, values in rates.items()
        ],
    )
    assert traced >= 0.95 * untraced, (
        f"telemetry overhead {overhead:.1%} exceeds the 5% budget "
        f"(median {traced:.0f} vs {untraced:.0f} lookups/s)"
    )

    results_path = save_results("bench_serving", payload)
    with open(ROOT_RESULTS, "w", encoding="utf-8") as fh:
        json.dump(
            json.loads(Path(results_path).read_text(encoding="utf-8")), fh, indent=2
        )
