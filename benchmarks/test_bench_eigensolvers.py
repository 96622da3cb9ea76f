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

A second bench records the size sweep behind ``DENSE_CUTOFF``: on
BFS-connected subgraphs of the M2x0.25 supergraph, from 24 to 1,300
nodes, it times the two paths the entry point chooses between, dense
``numpy.linalg.eigh`` and ARPACK (median of five solves each), on both
kinds of input the cutoff switches: the matrix-free alpha-Cut operator
(ARPACK ``which="SA"``) and the sparse normalized Laplacian of the
Ncut baseline, multilevel bisection and the eigengap heuristic (ARPACK
shift-invert at ``sigma=0``). It checks that the two paths agree to
1e-6 at every size and on both inputs. It asserts no timing; the
crossovers it reports are what the cutoff is set from.

A third bench records the BLAS thread policy: on the alpha-Cut operator
of the M1/M2/M3 supergraphs at quarter and full scale (about 260 to
38k nodes) it runs the production ARPACK solve, pinned to one OpenBLAS
thread, against the same solve left at two threads. Per size it
reports the median solve wall time, the median process CPU time of the
solve plus a trailing idle window (an OpenBLAS worker spins on after
its last call and bills that CPU to the process), and whether the
eigenvector bytes of the two runs are identical.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from benchmarks.conftest import LARGE_NAMES, print_table, save_results
from repro.core.spectral import last_eigensolver_outcome, smallest_eigenvectors
import repro.graph.eigen as eigen
from repro.datasets.large import melbourne_like
from repro.graph.eigen import DENSE_CUTOFF, _arpack
from repro.graph.laplacian import AlphaCutOperator, alpha_cut_matrix, normalized_laplacian
from repro.network.dual import build_road_graph
from repro.supergraph.builder import build_supergraph

K = 8
SWEEP_SIZES = (24, 40, 96, 160, 200, 256, 325, 650, 1300)
SWEEP_REPEATS = 5
THREAD_SIZES = (("M1", 0.25), ("M2", 0.25), ("M3", 0.25), ("M1", 1.0), ("M2", 1.0), ("M3", 1.0))
THREAD_REPEATS = 3
IDLE_S = 0.4


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


def _median_solve(solve, repeats: int = SWEEP_REPEATS):
    """(median seconds, values of the last solve) over ``repeats`` solves."""
    seconds = []
    for __ in range(repeats):
        start = time.perf_counter()
        values = solve()
        seconds.append(time.perf_counter() - start)
    return float(np.median(seconds)), np.sort(values)[:K]


def test_dense_arpack_crossover(benchmark):
    network, densities = melbourne_like("M2", size_factor=0.25, seed=0)
    graph = build_road_graph(network).with_features(densities)
    adjacency = build_supergraph(graph, seed=0).adjacency.tocsr()
    order = breadth_first_order(adjacency, 0, directed=False, return_predecessors=False)
    sizes = [m for m in SWEEP_SIZES if m <= order.size]
    assert sizes[-1] >= 1000, "the sweep must reach the large end"

    def run():
        out = {}
        for m in sizes:
            idx = np.sort(order[:m])
            sub = adjacency[idx][:, idx]
            for kind, op in (("alpha_cut", AlphaCutOperator(sub)),
                             ("laplacian", normalized_laplacian(sub))):
                dense_s, dense_values = _median_solve(lambda: np.linalg.eigh(op.toarray())[0])
                arpack_s, arpack_values = _median_solve(lambda: _arpack(op, K)[0])
                out[kind, m] = {
                    "dense_ms": 1e3 * dense_s,
                    "arpack_ms": 1e3 * arpack_s,
                    "dense_values": dense_values,
                    "arpack_values": arpack_values,
                }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    kinds = ("alpha_cut", "laplacian")
    # per input, the smallest size from which ARPACK is faster at every larger size
    crossover = {
        kind: next(
            (m for m in sizes if all(results[kind, n]["arpack_ms"] < results[kind, n]["dense_ms"]
                                     for n in sizes if n >= m)),
            None,
        )
        for kind in kinds
    }

    print_table(
        f"Dense eigh vs ARPACK on M2x0.25 supergraph BFS subgraphs (k={K}, "
        f"median of {SWEEP_REPEATS}; DENSE_CUTOFF={DENSE_CUTOFF}, crossover {crossover})",
        ["nodes", "alpha-Cut eigh ms", "alpha-Cut ARPACK SA ms",
         "L_sym eigh ms", "L_sym ARPACK shift-invert ms"],
        [
            [m] + [round(results[kind, m][key], 2) for kind in kinds
                   for key in ("dense_ms", "arpack_ms")]
            for m in sizes
        ],
    )
    save_results(
        "bench_eigensolvers_crossover",
        {
            "k": K,
            "repeats": SWEEP_REPEATS,
            "dense_cutoff": DENSE_CUTOFF,
            "measured_crossover": crossover,
            "sweep": {
                kind: [
                    {"n": m, "dense_ms": results[kind, m]["dense_ms"],
                     "arpack_ms": results[kind, m]["arpack_ms"]}
                    for m in sizes
                ]
                for kind in kinds
            },
        },
    )

    for rec in results.values():
        np.testing.assert_allclose(rec["arpack_values"], rec["dense_values"], atol=1e-6)


@contextmanager
def _unpinned(n_threads: int):
    """Solve without the one-thread pin, at ``n_threads`` OpenBLAS threads."""
    controls = eigen._BLAS_CONTROLS
    get, set_ = controls
    saved = get()
    set_(n_threads)
    eigen._BLAS_CONTROLS = None
    try:
        yield
    finally:
        eigen._BLAS_CONTROLS = controls
        set_(saved)


def _timed_solve(op):
    """(wall s, CPU s including an idle window after the solve, vector sha1)."""
    cpu = time.process_time()
    start = time.perf_counter()
    __, vectors = _arpack(op, K)
    wall = time.perf_counter() - start
    time.sleep(IDLE_S)
    digest = hashlib.sha1(np.ascontiguousarray(vectors).tobytes()).hexdigest()
    return wall, time.process_time() - cpu, digest


def test_one_vs_two_blas_threads(benchmark):
    if eigen._BLAS_CONTROLS is None:
        pytest.skip("no OpenBLAS thread controls in this scipy")
    operators = {}
    for name, factor in THREAD_SIZES:
        network, densities = melbourne_like(name, size_factor=factor, seed=0)
        graph = build_road_graph(network).with_features(densities)
        operators[f"{name}x{factor:g}"] = AlphaCutOperator(
            build_supergraph(graph, seed=0).adjacency
        )
    _arpack(next(iter(operators.values())), K)  # lazy imports, BLAS start-up

    def run():
        out = {}
        for label, op in operators.items():
            rows = {"pinned": [], "two_threads": []}
            for __ in range(THREAD_REPEATS):
                rows["pinned"].append(_timed_solve(op))
                with _unpinned(2):
                    rows["two_threads"].append(_timed_solve(op))
            rec = out[label] = {"n": op.shape[0]}
            for regime, runs in rows.items():
                rec[regime] = {
                    "wall_s": float(np.median([r[0] for r in runs])),
                    "cpu_s": float(np.median([r[1] for r in runs])),
                    "sha1": sorted({r[2] for r in runs}),
                }
            rec["identical"] = rec["pinned"]["sha1"] == rec["two_threads"]["sha1"]
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"ARPACK alpha-Cut solve, 1 pinned vs 2 OpenBLAS threads (k={K}, median of "
        f"{THREAD_REPEATS}; CPU includes a {IDLE_S} s idle window)",
        ["supergraph", "nodes", "1 thread wall s", "1 thread cpu s",
         "2 threads wall s", "2 threads cpu s", "bit-identical"],
        [
            [label, rec["n"]]
            + [round(rec[regime][key], 3) for regime in ("pinned", "two_threads")
               for key in ("wall_s", "cpu_s")]
            + [rec["identical"]]
            for label, rec in results.items()
        ],
    )
    save_results("bench_eigensolvers_threads", {"k": K, "idle_s": IDLE_S, "sizes": results})

    for rec in results.values():
        # the pinned solve is deterministic; the two-thread one may not be
        assert len(rec["pinned"]["sha1"]) == 1
