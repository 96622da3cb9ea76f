"""Table 3 — running time in seconds, broken down by framework module.

Paper values (Matlab, authors' hardware):

========  =====  ====  =====  =====
module    D1     M1    M2     M3
========  =====  ====  =====  =====
1 (graph) <1     9     24     137
2 (super) <1     54    848    2044
3 (cut)   <1     66    1033   3726
total     <1     129   1905   5907
========  =====  ====  =====  =====

This bench reproduces the breakdown on the analogue datasets (quarter
scale by default) and checks the structural claims: total time grows
with network size, and module 1 is the cheapest module on the largest
network.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import LARGE_NAMES, bench_dataset, print_table, save_results
from repro.pipeline.framework import SpatialPartitioningFramework
from repro.datasets.registry import load_dataset

K = 5


def _run_one(name):
    network, densities = load_dataset(name, seed=3)
    framework = SpatialPartitioningFramework(k=K, scheme="ASG", seed=0)
    result = framework.partition(network, densities)
    timings = dict(result.timings)
    timings["total"] = result.total_time
    timings["segments"] = network.n_segments
    # explicit size stamp: scopes this dataset's timings in the
    # history records
    timings["n_segments"] = network.n_segments
    if result.n_supernodes is not None:
        timings["n_supernodes"] = result.n_supernodes
    return timings


def test_table3_runtime(benchmark):
    names = ["D1"] + LARGE_NAMES

    def run():
        return {name: _run_one(name) for name in names}

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            name,
            timings[name]["segments"],
            round(timings[name].get("module1", 0.0), 3),
            round(timings[name].get("module2", 0.0), 3),
            round(timings[name].get("module3", 0.0), 3),
            round(timings[name]["total"], 3),
        ]
        for name in names
    ]
    print_table(
        "Table 3: running time per module (seconds)",
        ["dataset", "segments", "module1", "module2", "module3", "total"],
        rows,
    )
    save_results("table3_runtime", timings)

    # totals grow with network size
    totals = [timings[name]["total"] for name in names]
    sizes = [timings[name]["segments"] for name in names]
    assert sizes == sorted(sizes)
    assert totals[-1] > totals[0]
    # module 1 (road-graph construction) is the cheapest on the largest net
    largest = timings[names[-1]]
    assert largest["module1"] <= largest["module2"]
    assert largest["module1"] <= largest["module3"] + largest["module2"]
