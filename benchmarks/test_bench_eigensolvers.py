"""Bench — the eigensolver entry point against the dense reference.

The paper identifies eigendecomposition as the framework's dominant
cost and plugs in a high-performance solver [3]. Here every spectral
stage goes through one entry point,
:func:`repro.graph.eigen.smallest_eigenpairs`, which picks dense
LAPACK or ARPACK by size. On each large-network analogue's supergraph
this bench runs the production alpha-Cut solve, checks its k smallest
eigenvalues against dense `numpy.linalg.eigh` of the alpha-Cut matrix
to 1e-6, and reports which regime served each solve and how long the
two took.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import LARGE_NAMES, print_table, save_results
from repro.core.spectral import last_eigensolver_outcome, smallest_eigenvectors
from repro.graph.laplacian import alpha_cut_matrix
from repro.supergraph.builder import build_supergraph

K = 8


def test_eigensolver_entry_point(benchmark, large_graphs):
    adjacencies = {
        name: build_supergraph(large_graphs[name], seed=0).adjacency for name in LARGE_NAMES
    }

    # the process's first solve pays lazy imports and BLAS start-up
    smallest_eigenvectors(adjacencies[LARGE_NAMES[0]], K)

    def run():
        out = {}
        for name, adjacency in adjacencies.items():
            start = time.perf_counter()
            values, __ = smallest_eigenvectors(adjacency, K)
            seconds = time.perf_counter() - start
            outcome = last_eigensolver_outcome()
            start = time.perf_counter()
            reference = np.linalg.eigvalsh(alpha_cut_matrix(adjacency))[:K]
            out[name] = {
                "n": outcome["n"],
                "solver": outcome["solver"],
                "seconds": seconds,
                "reference_seconds": time.perf_counter() - start,
                "residual": outcome["residual"],
                "values": values,
                "reference": reference,
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Eigensolver entry point vs dense eigh on the supergraphs (k={K})",
        ["dataset", "n", "solver", "seconds", "eigh seconds", "residual"],
        [
            [name, rec["n"], rec["solver"], round(rec["seconds"], 4),
             round(rec["reference_seconds"], 4), rec["residual"]]
            for name, rec in results.items()
        ],
    )
    save_results(
        "bench_eigensolvers",
        {
            name: {k: rec[k] for k in ("n", "solver", "seconds", "reference_seconds", "residual")}
            for name, rec in results.items()
        },
    )

    for rec in results.values():
        np.testing.assert_allclose(rec["values"], rec["reference"], atol=1e-6)
