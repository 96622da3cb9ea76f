"""Sharded supergraph mining with boundary-zone stitching.

:class:`ShardedSupergraphBuilder` scales Algorithm 1 to metropolis
networks by mining geographically compact shards in separate processes
and repairing the seams afterwards:

1. **Shard** — :func:`repro.shard.spatial.graph_shards` labels every
   road-graph node (segment) with a shard; the full density vector,
   the CSR adjacency and the shard index travel to workers through one
   :class:`repro.util.shm.ShardContext` (zero-copy shared memory).
2. **Mine** — each worker runs the ordinary
   :class:`repro.supergraph.SupergraphBuilder` on its shard's induced
   subgraph (Algorithm 1 unchanged, ``workers=1`` to avoid nested
   pools) and returns its supernode membership, features and chosen
   kappa.
3. **Stitch** — per-shard supernodes become one global set; the
   boundary zone (road edges whose endpoints live in different shards)
   induces a supernode *contact graph*; a 1-D k-means over supernode
   features at the maximum of the per-shard kappas relabels them, and
   :func:`repro.graph.components.constrained_components` merges
   contacting supernodes that land in the same cluster — exactly the
   same "same cluster AND adjacent" rule Algorithm 1 applies to nodes,
   lifted to the supernode level. Merged features are the size-weighted
   means of the constituents (exact for untouched supernodes).
4. **Superlinks** — Equation 3 weights are computed once, globally, on
   the full road adjacency, so downstream alpha-cut/NCut partitioning
   sees a single coherent supergraph.

With ``n_shards=1`` the builder delegates to the serial
:class:`~repro.supergraph.SupergraphBuilder`, so output is
bit-identical to the reference path. For ``n_shards > 1`` the result
is deterministic in ``n_shards`` (and the seed) but independent of
worker count and pool — fix the shard count to compare worker
scalings on identical output.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.clustering.kmeans import kmeans_1d
from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import constrained_components
from repro.obs.logs import get_logger
from repro.obs.metrics import incr, set_gauge
from repro.obs.trace import current_tracer
from repro.shard.spatial import graph_shards, shard_order
from repro.supergraph.builder import SupergraphBuilder
from repro.supergraph.model import Supergraph
from repro.supergraph.superlink import superlink_weights
from repro.supergraph.supernode import Supernode
from repro.util.parallel import map_parallel, resolve_workers
from repro.util.rng import RngLike, ensure_rng
from repro.util.shm import ShardContext, active_shard
from repro.util.timer import ModuleTimer

logger = get_logger("shard.pipeline")

#: Shards smaller than this are pointless (the kappa scan needs room);
#: the builder clamps ``n_shards`` so every shard clears it.
MIN_SHARD_NODES = 8


def _mine_shard(
    config: Dict[str, Any], shard_id: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Mine one shard: returns (membership, supernode features, kappa).

    Reads the full graph plus the shard index out of the ambient
    :class:`~repro.util.shm.ShardContext` and slices the shard's
    induced subgraph locally — nothing graph-sized is ever pickled.
    Module-level so it stays picklable for process pools. Under an
    ambient tracer (process-pool workers run one per task) the whole
    mine is wrapped in a ``shard.mine`` span carrying the ``shard``
    attribute, so grafted worker trees identify their shard.
    """
    ctx = active_shard()
    order = ctx.get("shards.order")
    offsets = ctx.get("shards.offsets")
    idx = order[offsets[shard_id] : offsets[shard_id + 1]]

    tracer = current_tracer()
    span_cm = (
        tracer.span("shard.mine", shard=int(shard_id), n_nodes=int(idx.size))
        if tracer is not None
        else nullcontext()
    )
    with span_cm:
        adjacency = ctx.get_csr("graph.adjacency")
        sub_adj = adjacency[idx][:, idx]
        features = ctx.get("graph.features")[idx]
        n_local = int(idx.size)

        kappa_max = config["kappa_max"]
        if kappa_max is not None:
            kappa_max = min(int(kappa_max), n_local - 1)
        seed = config["seed"]
        builder = SupergraphBuilder(
            epsilon_theta=config["epsilon_theta"],
            epsilon_fraction=config["epsilon_fraction"],
            epsilon_eta=config["epsilon_eta"],
            kappa_max=kappa_max,
            sample_size=config["sample_size"],
            kmeans_method=config["kmeans_method"],
            seed=None if seed is None else int(seed) + shard_id,
            workers=1,  # no nested pools inside a shard worker
        )
        supergraph = builder.build(Graph.from_adjacency(sub_adj, features=features))
        return (
            np.asarray(supergraph.member_of),
            np.asarray(supergraph.features(), dtype=float),
            int(builder.report.chosen_kappa),
        )


@dataclass
class ShardedBuildReport:
    """Diagnostics of a sharded supergraph build.

    Attributes
    ----------
    n_shards:
        Shard count actually used (after the minimum-size clamp).
    shard_sizes:
        Road-graph nodes per shard.
    shard_kappas:
        The kappa each shard's Algorithm-1 run selected.
    shard_supernodes:
        Supernode count each shard produced.
    n_cross_edges:
        Road-graph edges crossing shard boundaries (the seam size).
    stitch_kappa:
        Cluster count of the stitching k-means (None when stitching
        was skipped — one shard, or no cross-shard contacts).
    n_supernodes_before_stitch:
        Global supernode count before boundary merging.
    n_supernodes:
        Final supernode count.
    """

    n_shards: int
    shard_sizes: List[int] = field(default_factory=list)
    shard_kappas: List[int] = field(default_factory=list)
    shard_supernodes: List[int] = field(default_factory=list)
    n_cross_edges: int = 0
    stitch_kappa: Optional[int] = None
    n_supernodes_before_stitch: int = 0
    n_supernodes: int = 0


class ShardedSupergraphBuilder:
    """Algorithm 1 over geographic shards, stitched at the seams.

    Accepts the same mining knobs as
    :class:`repro.supergraph.SupergraphBuilder` plus the shard and
    worker counts. The supergraph for a given ``(graph, points,
    n_shards, seed)`` is identical for every ``workers`` count.

    Parameters
    ----------
    n_shards:
        Geographic shard count. ``None`` uses the resolved worker
        count — convenient, but then changing ``workers`` changes the
        sharding; pass an explicit count when comparing worker
        scalings. Clamped so every shard keeps at least
        ``MIN_SHARD_NODES`` nodes; ``1`` delegates to the serial
        builder (bit-identical output).
    epsilon_theta, epsilon_fraction, epsilon_eta, kappa_max,
    sample_size, superlink_mode, kmeans_method, seed:
        As in :class:`~repro.supergraph.SupergraphBuilder`; applied
        per shard (``kappa_max`` is additionally clamped to each
        shard's size - 1).
    workers:
        Worker count for the per-shard mining, which runs in a process
        pool when it resolves above 1 (shard mining is pure-Python
        heavy, so processes escape the GIL); ``None`` defers to
        ``REPRO_NUM_WORKERS``.
    timer:
        Optional :class:`ModuleTimer` receiving ``module2.*`` spans
        (``shard_mining``, ``stitch``, ``superlinks``).
    """

    def __init__(
        self,
        n_shards: Optional[int] = None,
        epsilon_theta: Optional[float] = None,
        epsilon_fraction: float = 0.995,
        epsilon_eta: float = 0.0,
        kappa_max: Optional[int] = None,
        sample_size: Optional[int] = None,
        superlink_mode: str = "supernode",
        kmeans_method: str = "lloyd",
        seed: RngLike = None,
        workers: Optional[int] = None,
        timer: Optional[ModuleTimer] = None,
    ) -> None:
        if n_shards is not None and n_shards < 1:
            raise GraphError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = n_shards
        self._epsilon_theta = epsilon_theta
        self._epsilon_fraction = epsilon_fraction
        self._epsilon_eta = epsilon_eta
        self._kappa_max = kappa_max
        self._sample_size = sample_size
        self._superlink_mode = superlink_mode
        self._kmeans_method = kmeans_method
        self._seed = seed
        self._workers = workers
        self._timer = timer
        self.report: Optional[ShardedBuildReport] = None

    # ------------------------------------------------------------------
    def resolve_shards(self, n_nodes: int) -> int:
        """The shard count a build over ``n_nodes`` nodes would use."""
        n_shards = self._n_shards
        if n_shards is None:
            n_shards = resolve_workers(self._workers)
        return max(1, min(int(n_shards), n_nodes // MIN_SHARD_NODES))

    def build(
        self, road_graph: Graph, points: Optional[np.ndarray] = None
    ) -> Supergraph:
        """Mine ``road_graph`` shard-by-shard and stitch the result.

        Parameters
        ----------
        road_graph:
            The dual road graph (node = segment, feature = density).
        points:
            Optional ``(n, 2)`` node coordinates (segment midpoints,
            see :func:`repro.shard.spatial.segment_midpoints`); the
            sharding falls back to the structural RCM split without
            them.
        """
        n = road_graph.n_nodes
        if n < 3:
            raise GraphError("supergraph mining needs at least 3 road-graph nodes")
        n_shards = self.resolve_shards(n)
        timer = self._timer if self._timer is not None else ModuleTimer()

        if n_shards <= 1:
            return self._build_delegated(road_graph, timer)

        features = np.asarray(road_graph.features, dtype=float)
        adjacency = road_graph.adjacency
        with timer.time("module2.sharding"):
            labels = graph_shards(road_graph, n_shards, points=points)
            order, offsets = shard_order(labels, n_shards)
        shard_sizes = np.diff(offsets)

        # shard workers derive their seed as base + shard_id, so the
        # base must be a plain int; generators/seed sequences are
        # collapsed by drawing one deterministic integer from them
        seed = self._seed
        if seed is not None and not isinstance(seed, (int, np.integer)):
            seed = int(ensure_rng(seed).integers(2**31 - 1))
        config = {
            "epsilon_theta": self._epsilon_theta,
            "epsilon_fraction": self._epsilon_fraction,
            "epsilon_eta": self._epsilon_eta,
            "kappa_max": self._kappa_max,
            "sample_size": self._sample_size,
            "kmeans_method": self._kmeans_method,
            "seed": None if seed is None else int(seed),
        }
        with timer.time("module2.shard_mining"):
            with ShardContext() as shard:
                shard.put("graph.features", features)
                shard.put_csr("graph.adjacency", adjacency)
                shard.put("shards.order", order)
                shard.put("shards.offsets", offsets)
                mined = map_parallel(
                    functools.partial(_mine_shard, config),
                    range(n_shards),
                    workers=self._workers,
                    shard=shard,
                )

        # global supernode set: per-shard memberships shifted by offset
        member_global = np.empty(n, dtype=np.int64)
        super_feats_parts: List[np.ndarray] = []
        shard_kappas: List[int] = []
        shard_counts: List[int] = []
        base = 0
        for s, (membership, feats_s, kappa_s) in enumerate(mined):
            idx = order[offsets[s] : offsets[s + 1]]
            member_global[idx] = membership + base
            base += feats_s.size
            super_feats_parts.append(feats_s)
            shard_kappas.append(kappa_s)
            shard_counts.append(int(feats_s.size))
        n_super = base
        super_feats = np.concatenate(super_feats_parts)
        super_sizes = np.bincount(member_global, minlength=n_super).astype(float)

        with timer.time("module2.stitch"):
            comp, stitch_kappa, n_cross = self._stitch(
                adjacency, labels, member_global, super_feats, n_super, shard_kappas
            )
        n_merged = int(comp.max()) + 1
        member_merged = comp[member_global]

        # merged features: size-weighted mean of constituent supernodes
        # (identical to the original feature for unmerged singletons)
        weight = np.bincount(comp, weights=super_feats * super_sizes, minlength=n_merged)
        total = np.bincount(comp, weights=super_sizes, minlength=n_merged)
        merged_feats = weight / total

        # member lists per merged supernode via one argsort
        node_order = np.argsort(member_merged, kind="stable")
        bounds = np.zeros(n_merged + 1, dtype=np.int64)
        np.cumsum(np.bincount(member_merged, minlength=n_merged), out=bounds[1:])
        supernodes = [
            Supernode(
                cid,
                node_order[bounds[cid] : bounds[cid + 1]],
                float(merged_feats[cid]),
            )
            for cid in range(n_merged)
        ]

        with timer.time("module2.superlinks"):
            weights = superlink_weights(
                adjacency,
                supernodes,
                node_features=features,
                mode=self._superlink_mode,
            )
        supergraph = Supergraph(supernodes, weights, n_road_nodes=n)

        self.report = ShardedBuildReport(
            n_shards=n_shards,
            shard_sizes=[int(s) for s in shard_sizes],
            shard_kappas=shard_kappas,
            shard_supernodes=shard_counts,
            n_cross_edges=n_cross,
            stitch_kappa=stitch_kappa,
            n_supernodes_before_stitch=n_super,
            n_supernodes=n_merged,
        )
        incr("shard.builds")
        set_gauge("shard.n_shards", n_shards)
        set_gauge("shard.cross_edges", n_cross)
        set_gauge("shard.supernodes_before_stitch", n_super)
        set_gauge("shard.supernodes", n_merged)
        logger.info(
            "sharded supergraph built: %d nodes, %d shards -> %d supernodes "
            "(%d before stitching, %d cross-shard edges)",
            n,
            n_shards,
            n_merged,
            n_super,
            n_cross,
        )
        return supergraph

    # ------------------------------------------------------------------
    def _build_delegated(self, road_graph: Graph, timer: ModuleTimer) -> Supergraph:
        """One shard: run the serial builder — bit-identical output."""
        builder = SupergraphBuilder(
            epsilon_theta=self._epsilon_theta,
            epsilon_fraction=self._epsilon_fraction,
            epsilon_eta=self._epsilon_eta,
            kappa_max=self._kappa_max,
            sample_size=self._sample_size,
            superlink_mode=self._superlink_mode,
            kmeans_method=self._kmeans_method,
            seed=self._seed,
            workers=self._workers,
            timer=timer,
        )
        supergraph = builder.build(road_graph)
        report = builder.report
        self.report = ShardedBuildReport(
            n_shards=1,
            shard_sizes=[road_graph.n_nodes],
            shard_kappas=[report.chosen_kappa],
            shard_supernodes=[supergraph.n_supernodes],
            n_cross_edges=0,
            stitch_kappa=None,
            n_supernodes_before_stitch=supergraph.n_supernodes,
            n_supernodes=supergraph.n_supernodes,
        )
        return supergraph

    def _stitch(
        self,
        adjacency,
        shard_labels: np.ndarray,
        member_global: np.ndarray,
        super_feats: np.ndarray,
        n_super: int,
        shard_kappas: List[int],
    ) -> Tuple[np.ndarray, Optional[int], int]:
        """Merge boundary supernodes: returns (comp, stitch_kappa, n_cross).

        ``comp`` maps each original supernode to its merged id. Only
        supernodes touching a cross-shard road edge can merge, and only
        when the stitching k-means puts them in the same density
        cluster — Algorithm 1's constrained-component rule applied at
        the supernode level.
        """
        coo = sp.csr_matrix(adjacency).tocoo()
        upper = coo.row < coo.col
        u, v = coo.row[upper], coo.col[upper]
        cross = shard_labels[u] != shard_labels[v]
        n_cross = int(cross.sum())
        identity = np.arange(n_super, dtype=np.int64)
        if n_cross == 0 or n_super < 3:
            return identity, None, n_cross

        p = member_global[u[cross]]
        q = member_global[v[cross]]
        contact = sp.csr_matrix(
            (
                np.ones(2 * p.size, dtype=float),
                (np.concatenate([p, q]), np.concatenate([q, p])),
            ),
            shape=(n_super, n_super),
        )
        contact.sum_duplicates()

        # the *maximum* of the per-shard kappas keeps the stitching
        # k-means at least as fine as the finest shard, so only
        # clearly-similar boundary supernodes merge — empirically this
        # tracks the single-process reference much closer than the
        # median (coarser stitching over-merges across the seams)
        stitch_kappa = int(np.max(shard_kappas))
        stitch_kappa = max(2, min(stitch_kappa, n_super - 1))
        stitch_labels = kmeans_1d(super_feats, stitch_kappa).labels
        comp = constrained_components(contact, stitch_labels)
        return np.asarray(comp, dtype=np.int64), stitch_kappa, n_cross


def build_supergraph_sharded(
    road_graph: Graph,
    n_shards: Optional[int] = None,
    points: Optional[np.ndarray] = None,
    **kwargs,
) -> Supergraph:
    """One-shot convenience wrapper around :class:`ShardedSupergraphBuilder`."""
    builder = ShardedSupergraphBuilder(n_shards=n_shards, **kwargs)
    return builder.build(road_graph, points=points)
