"""Algorithm 1 end to end: road graph → road supergraph.

Steps (paper Section 4):

1. scan kappa with 1-D k-means on (a sample of) the node densities and
   shortlist every kappa whose MCG clears the optimality threshold;
2. for each shortlisted kappa in turn, cluster the *full* density set
   (read off the scan's own fit when it ran on the full set), count
   the constrained connected components, and keep the configuration
   producing the fewest components (fewest supernodes);
3. create supernodes with cluster means as features;
4. optionally run the stability check (Algorithm 2) with threshold
   epsilon_eta;
5. establish weighted superlinks (Equation 3).

The build streams through kappa: the scan keeps one shared sort and
each kappa's centers, never a label vector per kappa; the shortlist
holds the running winner's fit beside the one being counted; the
superlinks are written straight into their CSR arrays. The working
memory of each step on M3 is tabled in ``docs/scaling.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.clustering.kmeans import fit_sorted
from repro.clustering.optimal1d import kmeans_1d_optimal
from repro.clustering.optimality import KappaScan, shortlist_kappa
from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import (
    EdgeList,
    edge_list,
    label_components,
    renumber_components,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import incr, set_gauge
from repro.supergraph.model import Supergraph
from repro.supergraph.stability import stability_check
from repro.supergraph.superlink import superlink_weights
from repro.supergraph.supernode import supernode_features
from repro.util.rng import RngLike
from repro.util.timer import ModuleTimer

logger = get_logger("supergraph.builder")


def _shortlist_outcomes(
    edges: EdgeList,
    features: np.ndarray,
    scan: KappaScan,
    shortlisted: List[int],
    kmeans_method: str,
) -> Tuple[int, np.ndarray, np.ndarray, int, np.ndarray, List[int]]:
    """The shortlisted kappa with the fewest supernodes: ``(kappa,
    labels, centers, supernode count, raw component ids, every kappa's
    count)``, the ids as :func:`label_components` returns them.

    Fits are built and counted one at a time in shortlist order; only
    the running winner's labels, centers and component ids stay alive,
    and a later kappa wins only on a strictly smaller count. An
    unsampled Lloyd scan already fitted every shortlisted kappa on
    these densities, so each one's labels are read off the scan's
    centers. After a sampled scan the Lloyd candidates are refitted on
    the full set in one :func:`fit_sorted` call; the exact-DP variant
    fits each candidate on its own. Every count filters the build's
    one int32 edge list by its labels.
    """
    if kmeans_method == "optimal":
        fits = (kmeans_1d_optimal(features, kappa) for kappa in shortlisted)
        candidates = ((fit.labels, fit.centers) for fit in fits)
    else:
        if scan.sampled:
            lloyd, index = fit_sorted(features, shortlisted), range(len(shortlisted))
        else:
            lloyd, index = scan.fits, [scan.kappas.index(kappa) for kappa in shortlisted]
        # int32 labels halve the gathers of every component count
        candidates = (
            (lloyd.labels(i, out=np.empty(features.size, dtype=np.int32)), lloyd.centers[i])
            for i in index
        )
    best = None
    counts: List[int] = []
    for kappa, (labels, centers) in zip(shortlisted, candidates):
        count, raw_ids = label_components(edges, labels)
        counts.append(count)
        if best is None or count < best[3]:
            best = (kappa, labels, centers, count, raw_ids)
    assert best is not None
    return (*best, counts)


@dataclass
class SupergraphBuildReport:
    """Diagnostics of a supergraph build.

    Attributes
    ----------
    scan:
        The MCG kappa scan (on the sample, when sampling was used).
    shortlisted:
        kappa values whose MCG cleared the threshold.
    chosen_kappa:
        The kappa finally selected (fewest supernodes).
    component_counts:
        Supernode count per shortlisted kappa, same order.
    n_supernodes_before_stability:
        Supernode count before the stability check.
    """

    scan: KappaScan
    shortlisted: List[int] = field(default_factory=list)
    chosen_kappa: int = 0
    component_counts: List[int] = field(default_factory=list)
    n_supernodes_before_stability: int = 0


class SupergraphBuilder:
    """Configurable builder running Algorithm 1.

    Parameters
    ----------
    epsilon_theta:
        Absolute MCG threshold (paper's epsilon_theta). When None, the
        scale-free ``epsilon_fraction`` is used instead.
    epsilon_fraction:
        Shortlist every kappa with MCG >= fraction * max MCG
        (default 0.995 — the MCG curve is nearly flat past its knee,
        so only near-optimal kappa should compete on supernode
        count); ignored when ``epsilon_theta`` is given.
    epsilon_eta:
        Stability threshold in [0, 1]; 0 disables the stability check
        (the paper's plain supergraph), 1 reduces supernodes to
        constant-density groups.
    kappa_max:
        Largest kappa scanned; default min(30, n-1).
    sample_size:
        Sample size for the kappa scan on very large density sets; the
        full set is always used for the final clustering.
    superlink_mode:
        ``"supernode"`` (paper-literal Eq. 3) or ``"node"``; see
        :func:`repro.supergraph.superlink.superlink_weights`.
    kmeans_method:
        ``"lloyd"`` (the paper's seeded Lloyd's, default) or
        ``"optimal"`` (exact DP — the 1-D optimum; the ablation bench
        shows seeded Lloyd's leaves a material optimality gap at
        larger kappa).
    seed:
        Seed for the sampling step.
    timer:
        Optional :class:`ModuleTimer` receiving fine-grained
        ``module2.*`` timings (scan, shortlist fits, supernodes,
        superlinks).
    """

    def __init__(
        self,
        epsilon_theta: Optional[float] = None,
        epsilon_fraction: float = 0.995,
        epsilon_eta: float = 0.0,
        kappa_max: Optional[int] = None,
        sample_size: Optional[int] = None,
        superlink_mode: str = "supernode",
        kmeans_method: str = "lloyd",
        seed: RngLike = None,
        timer: Optional[ModuleTimer] = None,
    ) -> None:
        if not 0.0 <= epsilon_eta <= 1.0:
            raise GraphError(f"epsilon_eta must be in [0, 1], got {epsilon_eta}")
        if kmeans_method not in ("lloyd", "optimal"):
            raise GraphError(
                f"kmeans_method must be 'lloyd' or 'optimal', got {kmeans_method!r}"
            )
        self._epsilon_theta = epsilon_theta
        self._epsilon_fraction = epsilon_fraction
        self._epsilon_eta = epsilon_eta
        self._kappa_max = kappa_max
        self._sample_size = sample_size
        self._superlink_mode = superlink_mode
        self._kmeans_method = kmeans_method
        self._seed = seed
        self._timer = timer
        self.report: Optional[SupergraphBuildReport] = None

    def build(self, road_graph: Graph) -> Supergraph:
        """Mine the supergraph of ``road_graph`` (Algorithm 1)."""
        n = road_graph.n_nodes
        if n < 3:
            raise GraphError("supergraph mining needs at least 3 road-graph nodes")
        features = np.asarray(road_graph.features, dtype=float)
        adjacency = road_graph.adjacency
        timer = self._timer if self._timer is not None else ModuleTimer()

        # Step 1: shortlist kappa by MCG
        shortlisted, scan = shortlist_kappa(
            features,
            epsilon_theta=self._epsilon_theta,
            epsilon_fraction=self._epsilon_fraction,
            kappa_max=self._kappa_max,
            sample_size=self._sample_size,
            seed=self._seed,
            timer=timer,
        )

        # Step 2: pick the configuration with the fewest supernodes,
        # the first of them in shortlist order. The counts, the
        # supernodes and the superlinks all read one edge list.
        edges = edge_list(adjacency)
        with timer.time("module2.shortlist_fits"):
            best_kappa, labels, centers, best_count, best_ids, component_counts = (
                _shortlist_outcomes(edges, features, scan, shortlisted, self._kmeans_method)
            )
        incr("supergraph.shortlist_fits", len(shortlisted))

        # Step 3: supernodes with cluster means as features, from the
        # components the shortlist count already found
        with timer.time("module2.supernodes"):
            member_of = renumber_components(best_count, best_ids)
            sn_features = supernode_features(member_of, labels, cluster_means=centers)
        # from here on the supergraph needs only member_of and features
        del labels, best_ids
        n_before = sn_features.size

        # Step 4: optional stability check
        if self._epsilon_eta > 0.0:
            with timer.time("module2.stability"):
                member_of, sn_features = stability_check(
                    member_of,
                    sn_features,
                    features,
                    self._epsilon_eta,
                    adjacency=adjacency,
                    reconnect=True,
                )

        # Step 5: weighted superlinks
        with timer.time("module2.superlinks"):
            weights = superlink_weights(
                edges,
                member_of,
                sn_features,
                node_features=features,
                mode=self._superlink_mode,
            )

        self.report = SupergraphBuildReport(
            scan=scan,
            shortlisted=list(shortlisted),
            chosen_kappa=best_kappa,
            component_counts=component_counts,
            n_supernodes_before_stability=n_before,
        )
        supergraph = Supergraph(member_of, sn_features, weights)
        incr("supergraph.builds")
        set_gauge("supergraph.chosen_kappa", best_kappa)
        set_gauge("supergraph.n_supernodes_before_stability", n_before)
        set_gauge("supergraph.n_supernodes", supergraph.n_supernodes)
        set_gauge("supergraph.n_superlinks", supergraph.adjacency.nnz // 2)
        logger.info(
            "supergraph built: %d road nodes -> %d supernodes "
            "(kappa=%d of %d shortlisted, %d before stability)",
            n,
            supergraph.n_supernodes,
            best_kappa,
            len(shortlisted),
            n_before,
        )
        return supergraph


def build_supergraph(
    road_graph: Graph,
    epsilon_theta: Optional[float] = None,
    epsilon_fraction: float = 0.995,
    epsilon_eta: float = 0.0,
    kappa_max: Optional[int] = None,
    sample_size: Optional[int] = None,
    seed: RngLike = None,
) -> Supergraph:
    """One-shot convenience wrapper around :class:`SupergraphBuilder`."""
    builder = SupergraphBuilder(
        epsilon_theta=epsilon_theta,
        epsilon_fraction=epsilon_fraction,
        epsilon_eta=epsilon_eta,
        kappa_max=kappa_max,
        sample_size=sample_size,
        seed=seed,
    )
    return builder.build(road_graph)
