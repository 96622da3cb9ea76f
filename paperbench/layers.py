"""The program's layers as spans, and the per-layer metrics drawn from them.

Span names are ``<layer>.<function>``; the layers are the program's
modules (``network``, ``clustering``, ``supergraph``, ``graph``,
``core``, ``baselines``, ``pipeline``, ``serve``).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Span, Tracer, coverage, self_times

# (module, attribute, span name); the order matters only for readability
LAYER_FUNCTIONS = [
    ("repro.pipeline.framework", "SpatialPartitioningFramework.partition", "pipeline.partition"),
    ("repro.pipeline.incremental", "IncrementalRepartitioner.update", "pipeline.update"),
    ("repro.network.dual", "build_road_graph", "network.build_road_graph"),
    ("repro.supergraph.builder", "SupergraphBuilder.build", "supergraph.build"),
    ("repro.clustering.optimality", "shortlist_kappa", "clustering.shortlist_kappa"),
    ("repro.clustering.kmeans", "kmeans_1d", "clustering.kmeans_1d"),
    ("repro.graph.components", "count_constrained_components", "graph.count_constrained_components"),
    ("repro.supergraph.supernode", "create_supernodes", "supergraph.create_supernodes"),
    ("repro.supergraph.stability", "stability_check", "supergraph.stability_check"),
    ("repro.supergraph.superlink", "superlink_weights", "supergraph.superlink_weights"),
    ("repro.core.partitioner", "AlphaCutPartitioner.partition", "core.alpha_cut"),
    ("repro.core.spectral", "spectral_partition", "core.spectral_partition"),
    ("repro.core.spectral", "smallest_eigenvectors", "core.eigensolve"),
    ("repro.clustering.kmeans", "kmeans", "clustering.kmeans"),
    ("repro.graph.components", "connected_components", "graph.connected_components"),
    ("repro.core.refine", "partition_connectivity_matrix", "core.partition_connectivity_matrix"),
    ("repro.core.refine", "recursive_bipartition", "core.recursive_bipartition"),
    ("repro.core.refine", "repair_connectivity", "core.repair_connectivity"),
    ("repro.baselines.ncut", "NcutPartitioner.partition", "baselines.ncut"),
    ("repro.graph.adjacency", "Graph.subgraph", "graph.subgraph"),
    ("repro.serve.index", "SegmentIndex.__init__", "serve.segment_index.build"),
    ("repro.serve.snapshot", "SnapshotStore.publish", "serve.publish"),
]

# per-layer metric -> unit; ".s" is self seconds per operation,
# ".calls" calls per operation (an operation is one partition call or
# one update)
PER_LAYER_UNITS: Dict[str, str] = {}
for _name in (
    "network.build_road_graph", "supergraph.build", "clustering.shortlist_kappa",
    "clustering.kmeans_1d", "graph.count_constrained_components",
    "supergraph.create_supernodes", "supergraph.stability_check",
    "supergraph.superlink_weights", "core.alpha_cut", "core.spectral_partition",
    "core.eigensolve.dense", "core.eigensolve.sparse", "core.eigensolve.meta",
    "clustering.kmeans", "graph.connected_components",
    "core.partition_connectivity_matrix", "core.recursive_bipartition",
    "core.repair_connectivity", "baselines.ncut", "pipeline.partition",
    "pipeline.update", "pipeline.update.local_run_scheme", "graph.subgraph",
    "serve.segment_index.build", "serve.publish",
):
    PER_LAYER_UNITS[_name + ".s"] = "s"
for _name in ("clustering.kmeans_1d", "core.eigensolve.dense", "core.eigensolve.sparse",
              "pipeline.update.local_run_scheme", "serve.publish"):
    PER_LAYER_UNITS[_name + ".calls"] = "count"
PER_LAYER_UNITS.update({
    "core.eigensolve.dense.max_n": "nodes",
    "core.eigensolve.sparse.max_n": "nodes",
    "supergraph.n_supernodes": "nodes",
    "core.k_prime": "count",
    "pipeline.update.regions_refreshed": "count",
    "pipeline.update.regions_kept": "count",
    "pipeline.update.relabel_yield": "fraction",
    "obs.trace_coverage": "fraction",
    "serve.lookup_ms.p50.single": "ms",
    "serve.lookup_ms.p50.batch": "ms",
    "serve.lookup_ms.p50.point": "ms",
    "serve.max_rps": "req/s",
    "serve.lookup_ms.p99": "ms",
    "serve.lookup_ms.p99.peak": "ms",
    "serve.requests": "count",
    "serve.responses.non200": "count",
    "serve.server_latency_ms.p99": "ms",
    "serve.server_latency_ms.p99.peak": "ms",
    "serve.group_size.mean": "requests",
    "serve.group_size.mean.peak": "requests",
    "serve.gen_late_ms.p99": "ms",
    "serve.gen_late_ms.p99.peak": "ms",
    "serve.backlog_max": "requests",
    "serve.backlog_max.peak": "requests",
    "serve.epochs": "count",
    "serve.server_cpu_frac.fail": "fraction",
    "serve.client_cpu_frac.fail": "fraction",
    "obs.trace_overhead_frac": "fraction",
})


def _tag_eigensolve(span: Span, args, kwargs, out) -> None:
    # read the regime of this very solve; PartitioningResult.eigensolver
    # only keeps a run's last (recursive-bipartition) solve
    from repro.core.spectral import last_eigensolver_outcome

    outcome = last_eigensolver_outcome() or {}
    span.attrs["n"] = int(outcome.get("n", 0))
    span.attrs["solver"] = outcome.get("solver")


def _tag_supergraph(span: Span, args, kwargs, out) -> None:
    span.attrs["n"] = int(out.n_supernodes)


def _tag_spectral(span: Span, args, kwargs, out) -> None:
    span.attrs["k_prime"] = int(out.max()) + 1 if len(out) else 0


_ANNOTATE = {
    "core.eigensolve": _tag_eigensolve,
    "supergraph.build": _tag_supergraph,
    "core.spectral_partition": _tag_spectral,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function (modules are imported first)."""
    for module, attr, name in LAYER_FUNCTIONS:
        importlib.import_module(module)
        tracer.patch(module, attr, name, annotate=_ANNOTATE.get(name))
    # only the incremental repartitioner's local refreshes, not every run_scheme
    tracer.patch("repro.pipeline.schemes", "run_scheme", "pipeline.update.local_run_scheme",
                 only_in="repro.pipeline.incremental")


def paired(tracer: Tracer, items, call) -> Tuple[List, List]:
    """``call`` on each item once untraced and once traced, alternating
    which goes first, so warm-up and the host's drift fall on both sides
    alike; returns (untraced results, traced results)."""
    plain, traced = [], []
    for i, item in enumerate(items):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                plain.append(call(item))
                continue
            install(tracer)
            tracer.enabled = True
            try:
                traced.append(call(item))
            finally:
                tracer.enabled = False
                tracer.unpatch()
    return plain, traced


def eigensolve_regime(span: Span) -> str:
    """``meta`` for solves on the k'-node meta-graph, else dense/sparse."""
    if span.has_ancestor("core.recursive_bipartition"):
        return "meta"
    return "dense" if span.attrs.get("solver") == "dense" else "sparse"


def _key(span: Span) -> str:
    if span.name == "core.eigensolve":
        return "core.eigensolve." + eigensolve_regime(span)
    return span.name


def layer_metrics(spans: List[Span], root: str, n_ops: int) -> Dict[str, float]:
    """Per-layer metrics of a traced run with ``n_ops`` root operations."""
    spans = [s for s in spans if s.name == root or s.has_ancestor(root)]
    out: Dict[str, float] = {}
    for name, entry in self_times(spans, _key).items():
        if name + ".s" in PER_LAYER_UNITS:
            out[name + ".s"] = entry["s"] / n_ops
        if name + ".calls" in PER_LAYER_UNITS:
            out[name + ".calls"] = entry["calls"] / n_ops
        if name + ".max_n" in PER_LAYER_UNITS:
            out[name + ".max_n"] = float(entry["max_n"])
    supergraphs = [s.attrs["n"] for s in spans if s.name == "supergraph.build"
                   and not s.has_ancestor("pipeline.update")]
    if supergraphs:
        out["supergraph.n_supernodes"] = sum(supergraphs) / len(supergraphs)
    k_primes = [s.attrs["k_prime"] for s in spans if s.name == "core.spectral_partition"
                and not s.has_ancestor("core.recursive_bipartition")]
    if k_primes:
        out["core.k_prime"] = sum(k_primes) / len(k_primes)
    out["obs.trace_coverage"] = coverage(spans, root)
    return out
