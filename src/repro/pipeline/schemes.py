"""The paper's evaluation schemes.

Section 6.3 notation:

* ``AG``  — alpha-Cut applied directly on the road graph;
* ``NG``  — normalized cut applied directly on the road graph;
* ``ASG`` — alpha-Cut on the road supergraph (no stability check);
* ``NSG`` — normalized cut on the road supergraph (no stability check);
* ``JG``  — the Ji & Geroliminis three-step comparator.

Direct schemes weight the binary road-graph links with the Gaussian
congestion affinity (Definition 3) before cutting; supergraph schemes
partition the weighted superlink matrix and expand supernode labels
back to road segments.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.ji_geroliminis import JiGeroliminisPartitioner
from repro.baselines.ncut import NcutPartitioner
from repro.core.partitioner import AlphaCutPartitioner
from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.graph.affinity import congestion_affinity
from repro.obs.logs import get_logger
from repro.obs.metrics import set_gauge
from repro.pipeline.results import PartitioningResult
from repro.supergraph.builder import SupergraphBuilder
from repro.util.rng import RngLike, ensure_rng
from repro.util.timer import ModuleTimer

SCHEMES = ("AG", "NG", "ASG", "NSG", "JG")

logger = get_logger("pipeline.schemes")


def run_scheme(
    scheme: str,
    road_graph: Graph,
    k: int,
    epsilon_eta: float = 0.0,
    epsilon_theta: Optional[float] = None,
    epsilon_fraction: float = 0.995,
    kappa_max: Optional[int] = None,
    sample_size: Optional[int] = None,
    superlink_mode: str = "supernode",
    kmeans_method: str = "lloyd",
    seed: RngLike = None,
    timer: Optional[ModuleTimer] = None,
) -> PartitioningResult:
    """Run one evaluation scheme on a road graph.

    Parameters
    ----------
    scheme:
        One of :data:`SCHEMES`.
    road_graph:
        The dual road graph with densities as features.
    k:
        Desired number of partitions.
    epsilon_eta:
        Stability threshold for supergraph schemes (0 = plain ASG/NSG
        supergraph, larger values interpolate toward the direct
        schemes).
    epsilon_theta, epsilon_fraction, kappa_max, sample_size,
    superlink_mode, kmeans_method:
        Supergraph mining parameters, forwarded to
        :class:`repro.supergraph.SupergraphBuilder`.
    seed:
        Reproducibility seed.
    timer:
        Optional :class:`repro.util.timer.ModuleTimer` receiving
        ``module2`` (supergraph mining) and ``module3`` (partitioning)
        timings, plus the fine-grained ``module2.*`` breakdown.

    Returns
    -------
    :class:`repro.pipeline.results.PartitioningResult`
    """
    scheme = scheme.upper()
    if scheme not in SCHEMES:
        raise PartitioningError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    rng = ensure_rng(seed)
    own_timer = timer if timer is not None else ModuleTimer()

    set_gauge("graph.n_nodes", road_graph.n_nodes)
    set_gauge("graph.n_edges", road_graph.n_edges)
    logger.debug(
        "running scheme %s on %d nodes (k=%d)", scheme, road_graph.n_nodes, k
    )

    n_supernodes: Optional[int] = None
    eigensolver: Optional[Dict] = None  # set by the alpha-Cut schemes

    if scheme in ("AG", "NG"):
        with own_timer.time("module3"):
            affinity = congestion_affinity(road_graph)
            if scheme == "AG":
                result = AlphaCutPartitioner(k, seed=rng).partition(affinity)
                labels, eigensolver = result.labels, result.eigensolver
            else:
                labels = NcutPartitioner(k, seed=rng).partition(affinity)
    elif scheme == "JG":
        with own_timer.time("module3"):
            labels = JiGeroliminisPartitioner(k, seed=rng).partition(road_graph)
    else:  # ASG / NSG
        with own_timer.time("module2"):
            builder = SupergraphBuilder(
                epsilon_theta=epsilon_theta,
                epsilon_fraction=epsilon_fraction,
                epsilon_eta=epsilon_eta,
                kappa_max=kappa_max,
                sample_size=sample_size,
                superlink_mode=superlink_mode,
                kmeans_method=kmeans_method,
                seed=rng,
                timer=own_timer,
            )
            supergraph = builder.build(road_graph)
            n_supernodes = supergraph.n_supernodes
        with own_timer.time("module3"):
            if supergraph.n_supernodes <= k:
                # supergraph already at/below target: every supernode
                # its own partition
                labels = supergraph.expand_partition(
                    np.arange(supergraph.n_supernodes)
                )
            elif scheme == "ASG":
                result = AlphaCutPartitioner(k, seed=rng).partition(supergraph)
                labels, eigensolver = result.node_labels, result.eigensolver
            else:
                labels = NcutPartitioner(k, seed=rng).partition(supergraph)

    return PartitioningResult(
        labels=labels,
        scheme=scheme,
        timings=own_timer.timings,
        n_supernodes=n_supernodes,
        eigensolver=eigensolver,
    )
