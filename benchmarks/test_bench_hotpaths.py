"""Hot-path benchmark: vectorized perf layer vs reference implementations.

Times old-vs-new on a synthetic ~50k-segment Manhattan grid (the scale
of the paper's M1/M2 networks):

* module 1 — dual transform + road-graph assembly (reference
  pure-Python set/clique loops vs the sparse incidence product);
* the full Algorithm-1 kappa scan (reference per-kappa re-sorting
  k-means + per-cluster-loop MCG vs the batched prefix-sum fits);
* the same scan, batched (every kappa in one Lloyd loop) vs the
  per-kappa prefix-sum loop it replaced, both scored by the library
  MCG — the MCG lists must be equal;
* the MCG scoring function alone;
* the n-D k-means assignment (broadcast tensor vs chunked
  ``||x||^2 - 2 x.c + ||c||^2``);
* alpha-Cut partition scoring (per-call weight passes vs the cached
  summary);
* publishing one serving epoch (a fresh ``SegmentIndex``, which builds
  the kd-tree, vs ``relabel`` of the previous epoch, which shares it);
* module 2 after the kappa choice: supernodes, the stability check
  (off, and at epsilon_eta = 0.5) and superlinks, on per-supernode
  objects (``tests/oracles.py``) vs on one membership vector, with
  byte-identical supergraphs;
* generating the full-scale M3 metropolis (network and hotspot
  densities): per-street and per-segment loops (``tests/oracles.py``)
  vs array passes, with identical networks and density bytes;
* the memory of one full-scale M3 network (tracemalloc peak while
  building it, and what it holds once built): the loop oracle's
  segment and intersection objects vs the network's arrays.

Writes ``BENCH_hotpaths.json`` at the repo root (plus the usual
``benchmarks/results`` copy) so the perf trajectory is tracked from
this PR onward. The module-1 and kappa-scan speedups are asserted
(>= 5x and >= 2x) — they are the paper's scalability story — and so is
the batched scan's (>= 2x over the per-kappa loop), the derived
epoch's (>= 5x over a fresh index, with identical lookups), module
2's (>= 2x without the stability check, >= 5x with it), the M3
generator's (>= 2x) and the M3 network's peak memory (>= 2x less).
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import print_table, save_results
from repro.obs.manifest import run_manifest
from repro.clustering.kmeans import assign_to_centers, kmeans_1d
from repro.clustering.optimality import moderated_clustering_gain, scan_kappa
from repro.datasets.large import melbourne_like
from repro.core.alpha_cut import _partition_weights, _prepare, partition_weight_summary
from repro.graph.adjacency import Graph
from repro.graph.components import edge_list
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network, urban_network
from repro.serve.index import SegmentIndex
from repro.supergraph.builder import SupergraphBuilder
from repro.supergraph.model import Supergraph
from repro.supergraph.stability import stability_check
from repro.supergraph.superlink import superlink_weights
from repro.supergraph.supernode import create_supernodes
from tests.oracles import (
    create_supernodes_loop,
    hotspot_profile_loop,
    kmeans_1d_prefix_reference,
    kmeans_1d_reference,
    membership_vector_loop,
    moderated_clustering_gain_reference,
    pairwise_sq_dists_reference,
    segment_adjacency_reference,
    stability_check_objects,
    superlink_weights_objects,
    urban_network_loop,
)

ROOT_RESULTS = Path(__file__).parent.parent / "BENCH_hotpaths.json"

GRID_SIDE = 115  # 115 x 115 two-way grid -> 52 440 directed segments
M3_SIDE = 159  # the M3 preset's grid side at size factor 1


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def _traced_mb(fn):
    """tracemalloc peak and retained MB of ``fn()`` (over what was held
    before), and its result."""
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    retained, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    return (peak - base) / 1e6, (retained - base) / 1e6, out


@pytest.fixture(scope="module")
def synthetic_city():
    network = grid_network(GRID_SIDE, GRID_SIDE, two_way=True)
    rng = np.random.default_rng(0)
    densities = rng.gamma(2.0, 0.02, size=network.n_segments)
    network.set_densities(densities)
    return network, densities


def test_bench_hotpaths(synthetic_city):
    network, densities = synthetic_city
    payload = {"n_segments": network.n_segments}

    # --- module 1: dual transform ------------------------------------
    def build_reference():
        edges = segment_adjacency_reference(network)
        return Graph(network.n_segments, edges=edges, features=network.densities())

    ref_s, ref_graph = _timed(build_reference)
    new_s, new_graph = _timed(build_road_graph, network)
    assert (ref_graph.adjacency != new_graph.adjacency).nnz == 0
    dual_speedup = ref_s / new_s
    payload["dual_transform"] = {
        "reference_s": ref_s,
        "vectorized_s": new_s,
        "speedup": dual_speedup,
        "n_dual_edges": new_graph.n_edges,
    }

    # --- full kappa scan ---------------------------------------------
    def scan_reference():
        mcg = []
        for kappa in range(2, 31):
            result = kmeans_1d_reference(densities, kappa)
            mcg.append(moderated_clustering_gain_reference(densities, result.labels))
        return mcg

    ref_scan_s, ref_mcg = _timed(scan_reference)
    new_scan_s, scan = _timed(scan_kappa, densities, 30)
    assert scan.mcg == pytest.approx(ref_mcg, rel=1e-6)
    scan_speedup = ref_scan_s / new_scan_s
    payload["kappa_scan"] = {
        "reference_s": ref_scan_s,
        "fast_s": new_scan_s,
        "speedup": scan_speedup,
        "best_kappa": scan.best_kappa,
    }

    # --- batched scan vs the per-kappa loop ---------------------------
    def scan_per_kappa():
        return [
            moderated_clustering_gain(densities, kmeans_1d_prefix_reference(densities, k).labels)
            for k in range(2, 31)
        ]

    reps_scan = 3
    loop_s, loop_mcg = min(
        (_timed(scan_per_kappa) for __ in range(reps_scan)), key=lambda t: t[0]
    )
    batched_s, batched_scan = min(
        (_timed(scan_kappa, densities, 30) for __ in range(reps_scan)), key=lambda t: t[0]
    )
    assert batched_scan.mcg == loop_mcg
    batch_speedup = loop_s / batched_s
    payload["kappa_scan_batched"] = {
        "per_kappa_loop_s": loop_s,
        "batched_s": batched_s,
        "speedup": batch_speedup,
        "repeats": reps_scan,
    }

    # --- MCG scoring alone -------------------------------------------
    labels = kmeans_1d(densities, 30).labels
    reps = 20
    ref_mcg_s, __ = _timed(
        lambda: [moderated_clustering_gain_reference(densities, labels) for _ in range(reps)]
    )
    new_mcg_s, __ = _timed(
        lambda: [moderated_clustering_gain(densities, labels) for _ in range(reps)]
    )
    payload["mcg"] = {
        "reference_s": ref_mcg_s / reps,
        "vectorized_s": new_mcg_s / reps,
        "speedup": ref_mcg_s / new_mcg_s,
    }

    # --- n-D assignment ----------------------------------------------
    rng = np.random.default_rng(1)
    points = rng.normal(size=(network.n_segments, 8))
    centers = rng.normal(size=(16, 8))
    ref_nd_s, ref_d2 = _timed(pairwise_sq_dists_reference, points, centers)
    new_nd_s, (nd_labels, __) = _timed(assign_to_centers, points, centers)
    assert np.array_equal(nd_labels, ref_d2.argmin(axis=1))
    payload["kmeans_nd_assignment"] = {
        "reference_broadcast_s": ref_nd_s,
        "chunked_s": new_nd_s,
        "speedup": ref_nd_s / new_nd_s,
    }

    # --- alpha-Cut partition scoring ---------------------------------
    part_labels = kmeans_1d(densities, 8).labels
    adjacency = new_graph.adjacency
    k = int(part_labels.max()) + 1

    def score_uncached():
        for __ in range(k):
            adj, lab, __n, kk = _prepare(adjacency, part_labels)
            _partition_weights(adj, lab, kk)

    def score_cached():
        for __ in range(k):
            partition_weight_summary(adjacency, part_labels)

    ref_cut_s, __ = _timed(score_uncached)
    new_cut_s, __ = _timed(score_cached)
    payload["alpha_cut_summary"] = {
        "reference_per_call_s": ref_cut_s,
        "cached_s": new_cut_s,
        "speedup": ref_cut_s / new_cut_s,
        "k": k,
    }

    # --- epoch publish: fresh index vs relabel ------------------------
    mids = network.segment_midpoints()
    previous = SegmentIndex(part_labels, points=mids, adjacency=adjacency, features=densities)
    epoch_labels = kmeans_1d(densities, 16).labels
    epoch_densities = densities * rng.uniform(0.8, 1.25, size=densities.size)
    reps_epoch = 5
    fresh_s, fresh = min(
        (
            _timed(SegmentIndex, epoch_labels, points=mids, adjacency=adjacency,
                   features=epoch_densities)
            for __ in range(reps_epoch)
        ),
        key=lambda t: t[0],
    )
    derived_s, derived = min(
        (_timed(previous.relabel, epoch_labels, epoch_densities) for __ in range(reps_epoch)),
        key=lambda t: t[0],
    )
    ids = np.arange(network.n_segments)
    assert np.array_equal(derived.regions_of(ids), fresh.regions_of(ids))
    probes = rng.uniform(mids.min(axis=0), mids.max(axis=0), size=(200, 2))
    assert [derived.lookup_point(x, y) for x, y in probes] == [
        fresh.lookup_point(x, y) for x, y in probes
    ]
    assert np.array_equal(derived.boundary_mask(), fresh.boundary_mask())
    epoch_speedup = fresh_s / derived_s
    payload["epoch_publish"] = {
        "fresh_index_s": fresh_s,
        "relabel_s": derived_s,
        "speedup": epoch_speedup,
        "repeats": reps_epoch,
    }

    # --- module 2 after the kappa choice: objects vs arrays --------------
    builder = SupergraphBuilder(seed=0)
    builder.build(new_graph)
    fit = kmeans_1d(densities, builder.report.chosen_kappa)
    reps_m2 = 3

    def module2_objects(epsilon_eta):
        sns = create_supernodes_loop(adjacency, fit.labels, cluster_means=fit.centers)
        if epsilon_eta:
            sns = stability_check_objects(sns, densities, epsilon_eta, adjacency)
        return sns, superlink_weights_objects(adjacency, sns)

    def module2_arrays(epsilon_eta):
        edges = edge_list(adjacency)
        member_of, feats = create_supernodes(edges, fit.labels, cluster_means=fit.centers)
        if epsilon_eta:
            member_of, feats = stability_check(
                member_of, feats, densities, epsilon_eta, adjacency=adjacency
            )
        return Supergraph(member_of, feats, superlink_weights(edges, member_of, feats))

    module2_rows = {}
    for epsilon_eta in (0.0, 0.5):
        objects_s, (sns, weights) = min(
            (_timed(module2_objects, epsilon_eta) for __ in range(reps_m2)), key=lambda t: t[0]
        )
        arrays_s, supergraph = min(
            (_timed(module2_arrays, epsilon_eta) for __ in range(reps_m2)), key=lambda t: t[0]
        )
        assert np.array_equal(supergraph.member_of, membership_vector_loop(sns, network.n_segments))
        assert supergraph.features().tobytes() == np.array([sn.feature for sn in sns]).tobytes()
        for part in ("data", "indices", "indptr"):
            assert getattr(supergraph.adjacency, part).tobytes() == getattr(weights, part).tobytes()
        module2_rows[epsilon_eta] = (objects_s, arrays_s, objects_s / arrays_s)
        payload[f"module2_build_eta{epsilon_eta:g}"] = {
            "objects_s": objects_s,
            "arrays_s": arrays_s,
            "speedup": objects_s / arrays_s,
            "kappa": builder.report.chosen_kappa,
            "n_supernodes": supergraph.n_supernodes,
            "repeats": reps_m2,
        }

    # --- M3 generation: per-street loops vs arrays ----------------------
    def generate_loops():
        rng = np.random.default_rng(0)
        net = urban_network_loop(M3_SIDE, M3_SIDE, seed=rng)
        return net, hotspot_profile_loop(net, n_hotspots=5, seed=rng)

    reps_gen = 3
    gen_loop_s, (loop_net, loop_dens) = min(
        (_timed(generate_loops) for __ in range(reps_gen)), key=lambda t: t[0]
    )
    gen_arrays_s, (m3_net, m3_dens) = min(
        (_timed(melbourne_like, "M3", seed=0) for __ in range(reps_gen)), key=lambda t: t[0]
    )
    assert [(i.location.x, i.location.y) for i in m3_net.intersections] == [
        (i.location.x, i.location.y) for i in loop_net.intersections
    ]
    assert [vars(s) for s in m3_net.segments] == [vars(s) for s in loop_net.segments]
    assert m3_dens.tobytes() == loop_dens.tobytes()
    gen_speedup = gen_loop_s / gen_arrays_s
    payload["generate_m3"] = {
        "loops_s": gen_loop_s,
        "arrays_s": gen_arrays_s,
        "speedup": gen_speedup,
        "n_segments": m3_net.n_segments,
        "repeats": reps_gen,
    }

    # --- one M3 network in memory: objects vs arrays --------------------
    del loop_net, m3_net
    objects_peak, objects_held, __ = _traced_mb(
        lambda: urban_network_loop(M3_SIDE, M3_SIDE, seed=np.random.default_rng(0))
    )
    arrays_peak, arrays_held, __ = _traced_mb(
        lambda: urban_network(M3_SIDE, M3_SIDE, seed=np.random.default_rng(0))
    )
    memory_ratio = objects_peak / arrays_peak
    payload["network_memory_m3"] = {
        "objects_peak_mb": objects_peak,
        "arrays_peak_mb": arrays_peak,
        "objects_retained_mb": objects_held,
        "arrays_retained_mb": arrays_held,
        "peak_ratio": memory_ratio,
    }

    rows = [
        ["module1 dual transform", ref_s, new_s, dual_speedup],
        ["kappa scan (2..30)", ref_scan_s, new_scan_s, scan_speedup],
        ["kappa scan batched vs per-kappa loop", loop_s, batched_s, batch_speedup],
        ["MCG (per call)", ref_mcg_s / reps, new_mcg_s / reps, ref_mcg_s / new_mcg_s],
        ["n-D assignment", ref_nd_s, new_nd_s, ref_nd_s / new_nd_s],
        ["alpha-cut scoring (k calls)", ref_cut_s, new_cut_s, ref_cut_s / new_cut_s],
        ["epoch publish (fresh vs relabel)", fresh_s, derived_s, epoch_speedup],
        ["module-2 build (objects vs arrays)", *module2_rows[0.0]],
        ["module-2 build, eta=0.5 (objects vs arrays)", *module2_rows[0.5]],
        ["M3 generation (loops vs arrays)", gen_loop_s, gen_arrays_s, gen_speedup],
    ]
    print_table(
        f"Hot paths on {network.n_segments}-segment grid",
        ["path", "reference_s", "optimized_s", "speedup"],
        rows,
    )

    print_table(
        "One M3 network in memory (tracemalloc)",
        ["network", "peak_MB", "retained_MB"],
        [
            ["objects (loop oracle)", objects_peak, objects_held],
            ["arrays", arrays_peak, arrays_held],
        ],
    )

    save_results("bench_hotpaths", payload)
    payload["provenance"] = run_manifest(extra={"bench": "bench_hotpaths"})
    with open(ROOT_RESULTS, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    # the acceptance floors of the perf layer
    assert dual_speedup >= 5.0, f"module-1 speedup {dual_speedup:.1f}x < 5x"
    assert scan_speedup >= 2.0, f"kappa-scan speedup {scan_speedup:.1f}x < 2x"
    assert batch_speedup >= 2.0, f"batched-scan speedup {batch_speedup:.1f}x < 2x"
    assert epoch_speedup >= 5.0, f"derived-epoch speedup {epoch_speedup:.1f}x < 5x"
    assert module2_rows[0.0][2] >= 2.0, f"module-2 speedup {module2_rows[0.0][2]:.1f}x < 2x"
    assert module2_rows[0.5][2] >= 5.0, (
        f"module-2 speedup with the stability check {module2_rows[0.5][2]:.1f}x < 5x"
    )
    assert gen_speedup >= 2.0, f"M3 generation speedup {gen_speedup:.1f}x < 2x"
    assert memory_ratio >= 2.0, f"M3 network peak memory ratio {memory_ratio:.1f}x < 2x"
