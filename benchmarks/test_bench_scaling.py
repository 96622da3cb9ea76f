"""Scaling benchmark: the parallel stages of supergraph mining.

Times the two parallel stages of the pipeline on a synthetic
metropolis-scale Manhattan grid across 1/2/4/8 workers, each on the
pool its work picks (see :func:`repro.util.parallel.map_parallel`):

* the Algorithm-1 kappa scan (``scan_kappa``), where every candidate
  kappa is an independent k-means fit + MCG score — a thread pool,
  since the fits spend their time in numpy;
* the sharded supergraph build (``ShardedSupergraphBuilder``), where
  each geographic shard is mined — per-shard kappa scan, k-means,
  constrained components — in its own process (shared-memory data
  plane) and the boundary is stitched globally.

By default the grid is ~100k directed segments so the whole curve
finishes in about a minute; ``REPRO_FULL_SCALE=1`` switches to the
~1M-segment metropolis the tentpole targets (budget several minutes).

Equivalence rides along: with the shard count fixed, the supergraph
membership must be **bit-identical** for every worker count, and the
kappa scan must pick the same best kappa — parallelism changes speed,
never results.

Writes ``BENCH_scaling.json`` at the repo root (plus the usual
``benchmarks/results`` copy + history append). The >= 2.5x end-to-end
speedup floor at 4 workers is asserted only when the machine actually
has >= 4 CPU cores; ``n_cores`` is recorded either way so a single-core
CI runner records an honest (flat) curve instead of a vacuous pass.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import FULL_SCALE, print_table, save_results
from repro.clustering.optimality import scan_kappa
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.shard.pipeline import ShardedSupergraphBuilder
from repro.shard.spatial import segment_midpoints

ROOT_RESULTS = Path(__file__).parent.parent / "BENCH_scaling.json"

# 160 x 160 two-way grid -> 101 760 directed segments by default;
# 500 x 500 -> 998 000 (the tentpole's metropolis) under full scale.
GRID_SIDE = 500 if FULL_SCALE else 160

WORKER_COUNTS = [1, 2, 4, 8]
N_SHARDS = 8
KAPPA_MAX = 30
SPEEDUP_FLOOR = 2.5  # end-to-end at 4 workers, when 4 cores exist


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


@pytest.fixture(scope="module")
def metropolis():
    network = grid_network(GRID_SIDE, GRID_SIDE, two_way=True)
    rng = np.random.default_rng(0)
    densities = rng.gamma(2.0, 0.02, size=network.n_segments)
    network.set_densities(densities)
    graph = build_road_graph(network)
    return graph, densities, segment_midpoints(network)


def test_bench_scaling(metropolis):
    graph, densities, points = metropolis
    n_cores = os.cpu_count() or 1
    payload = {
        "n_segments": graph.n_nodes,
        "n_cores": n_cores,
        "full_scale": FULL_SCALE,
        "n_shards": N_SHARDS,
        "worker_counts": WORKER_COUNTS,
        "pools": {"kappa_scan": "thread", "supergraph": "process"},
    }

    # --- stage 1: kappa scan ------------------------------------------
    scan_times = {}
    best_kappas = {}
    for workers in WORKER_COUNTS:
        elapsed, scan = _timed(scan_kappa, densities, KAPPA_MAX, workers=workers)
        scan_times[workers] = elapsed
        best_kappas[workers] = scan.best_kappa
    assert len(set(best_kappas.values())) == 1, (
        f"kappa scan must be worker-invariant, got {best_kappas}"
    )
    payload["kappa_scan"] = {
        "kappa_max": KAPPA_MAX,
        "best_kappa": best_kappas[1],
        "seconds": {str(w): scan_times[w] for w in WORKER_COUNTS},
        "speedup": {str(w): scan_times[1] / scan_times[w] for w in WORKER_COUNTS},
    }

    # --- stage 2: sharded supergraph build ----------------------------
    build_times = {}
    reference_member_of = None
    for workers in WORKER_COUNTS:
        builder = ShardedSupergraphBuilder(n_shards=N_SHARDS, seed=0, workers=workers)
        elapsed, supergraph = _timed(builder.build, graph, points=points)
        build_times[workers] = elapsed
        member_of = np.asarray(supergraph.member_of)
        if reference_member_of is None:
            reference_member_of = member_of
            payload["supergraph"] = {
                "n_supernodes": supergraph.n_supernodes,
                "stitch_kappa": builder.report.stitch_kappa,
                "n_cross_edges": builder.report.n_cross_edges,
            }
        else:
            assert np.array_equal(member_of, reference_member_of), (
                f"supergraph membership diverged at workers={workers}"
            )
    payload["supergraph"]["seconds"] = {
        str(w): build_times[w] for w in WORKER_COUNTS
    }
    payload["supergraph"]["speedup"] = {
        str(w): build_times[1] / build_times[w] for w in WORKER_COUNTS
    }

    # --- end-to-end curve ---------------------------------------------
    total = {w: scan_times[w] + build_times[w] for w in WORKER_COUNTS}
    speedup = {w: total[1] / total[w] for w in WORKER_COUNTS}
    payload["end_to_end"] = {
        "seconds": {str(w): total[w] for w in WORKER_COUNTS},
        "speedup": {str(w): speedup[w] for w in WORKER_COUNTS},
    }
    payload["equivalence"] = {
        "supergraph_labels_bit_identical": True,
        "kappa_scan_worker_invariant": True,
    }

    rows = [
        [w, scan_times[w], build_times[w], total[w], speedup[w]]
        for w in WORKER_COUNTS
    ]
    print_table(
        f"Scaling on {graph.n_nodes}-segment grid "
        f"({n_cores} cores, {N_SHARDS} shards; scan on threads, shards in processes)",
        ["workers", "kappa_scan_s", "supergraph_s", "total_s", "speedup"],
        rows,
    )

    floor_asserted = n_cores >= 4
    payload["speedup_floor"] = {
        "floor": SPEEDUP_FLOOR,
        "at_workers": 4,
        "asserted": floor_asserted,
    }

    save_results("bench_scaling", payload)
    with open(ROOT_RESULTS, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    if floor_asserted:
        assert speedup[4] >= SPEEDUP_FLOOR, (
            f"end-to-end speedup at 4 workers {speedup[4]:.2f}x < "
            f"{SPEEDUP_FLOOR}x on a {n_cores}-core machine"
        )
    else:
        pytest.skip(
            f"only {n_cores} CPU core(s): speedup floor not asserted "
            f"(curve recorded in {ROOT_RESULTS.name})"
        )


def test_process_pool_matches_serial(metropolis):
    """Shards mined in two processes match the single-worker loop bit for bit."""
    graph, __, points = metropolis
    serial = ShardedSupergraphBuilder(n_shards=4, seed=3, workers=1).build(
        graph, points=points
    )
    process = ShardedSupergraphBuilder(n_shards=4, seed=3, workers=2).build(
        graph, points=points
    )
    assert np.array_equal(serial.member_of, process.member_of)
    assert np.array_equal(serial.features(), process.features())
