"""Algorithm 1 end to end: road graph → road supergraph.

Steps (paper Section 4):

1. scan kappa with 1-D k-means on (a sample of) the node densities and
   shortlist every kappa whose MCG clears the optimality threshold;
2. for each shortlisted kappa, cluster the *full* density set (the
   scan's own fit when it ran on the full set), count the constrained
   connected components, and keep the configuration producing the
   fewest components (fewest supernodes);
3. create supernodes with cluster means as features;
4. optionally run the stability check (Algorithm 2) with threshold
   epsilon_eta;
5. establish weighted superlinks (Equation 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.clustering.kmeans import KMeansResult, kmeans_1d
from repro.clustering.optimality import KappaScan, shortlist_kappa
from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.components import count_constrained_components
from repro.obs.logs import get_logger
from repro.obs.metrics import incr, set_gauge
from repro.supergraph.model import Supergraph
from repro.supergraph.stability import stability_check
from repro.supergraph.superlink import superlink_weights
from repro.supergraph.supernode import create_supernodes
from repro.util.parallel import map_parallel
from repro.util.rng import RngLike
from repro.util.timer import ModuleTimer

logger = get_logger("supergraph.builder")


def _fit_and_count(
    upper, features: np.ndarray, presorted: Optional[np.ndarray], kappa: int
) -> Tuple[KMeansResult, int]:
    """One shortlist candidate: full-data fit + supernode count.

    ``upper`` is the upper triangle of the CSR adjacency. ``presorted``
    is the shared sort of ``features`` for the seeded-Lloyd
    ``kmeans_1d``; ``None`` selects the exact-DP variant, which sorts
    internally.
    """
    if presorted is None:
        from repro.clustering.optimal1d import kmeans_1d_optimal

        result = kmeans_1d_optimal(features, kappa)
    else:
        result = kmeans_1d(features, kappa, presorted=presorted)
    return result, count_constrained_components(upper, result.labels)


def _shortlist_outcomes(
    adjacency,
    features: np.ndarray,
    scan: KappaScan,
    shortlisted: List[int],
    kmeans_method: str,
    workers: Optional[int],
) -> List[Tuple[KMeansResult, int]]:
    """(fit, supernode count) per shortlisted kappa, in shortlist order.

    An unsampled Lloyd scan already fitted every shortlisted kappa on
    these densities with this sort, so only the counts remain;
    otherwise each candidate is refitted on the full set. Either way
    the candidates run as one order-keeping map_parallel on threads.
    The upper triangle and the sort built here are freed on return,
    before the supernode and superlink steps reach the build's memory
    peak.
    """
    upper = sp.triu(adjacency, k=1, format="csr")
    if not scan.sampled and kmeans_method == "lloyd":
        fits = dict(zip(scan.kappas, scan.results))
        results = [fits[kappa] for kappa in shortlisted]
        counts = map_parallel(
            lambda result: count_constrained_components(upper, result.labels),
            results,
            workers=workers,
        )
        return list(zip(results, counts))
    presorted = None if kmeans_method == "optimal" else np.sort(features, kind="stable")
    return map_parallel(
        functools.partial(_fit_and_count, upper, features, presorted),
        shortlisted,
        workers=workers,
    )


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
    workers:
        Worker count for the per-kappa scan fits and the shortlist
        counts or refits (both embarrassingly parallel, run on
        threads); ``None`` defers to the ``REPRO_NUM_WORKERS``
        environment variable (serial when unset). The build result is
        identical for every worker count.
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
        workers: Optional[int] = None,
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
        self._workers = workers
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
            workers=self._workers,
            timer=timer,
        )

        # Step 2: pick the configuration with the fewest supernodes. The
        # candidates come back in shortlist order, so the strict-<
        # selection below is deterministic.
        with timer.time("module2.shortlist_fits"):
            outcomes = _shortlist_outcomes(
                adjacency, features, scan, shortlisted, self._kmeans_method, self._workers
            )
        incr("supergraph.shortlist_fits", len(shortlisted))
        best_kappa = -1
        best_count = None
        best_result = None
        component_counts: List[int] = []
        for kappa, (result, count) in zip(shortlisted, outcomes):
            component_counts.append(count)
            if best_count is None or count < best_count:
                best_count = count
                best_kappa = kappa
                best_result = result
        assert best_result is not None

        # Step 3: supernodes with cluster means as features
        with timer.time("module2.supernodes"):
            supernodes = create_supernodes(
                adjacency, best_result.labels, cluster_means=best_result.centers
            )
        n_before = len(supernodes)

        # Step 4: optional stability check
        if self._epsilon_eta > 0.0:
            with timer.time("module2.stability"):
                supernodes = stability_check(
                    supernodes,
                    features,
                    self._epsilon_eta,
                    adjacency=adjacency,
                    reconnect=True,
                )

        # Step 5: weighted superlinks
        with timer.time("module2.superlinks"):
            weights = superlink_weights(
                adjacency,
                supernodes,
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
        supergraph = Supergraph(supernodes, weights, n_road_nodes=n)
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
    workers: Optional[int] = None,
) -> Supergraph:
    """One-shot convenience wrapper around :class:`SupergraphBuilder`."""
    builder = SupergraphBuilder(
        epsilon_theta=epsilon_theta,
        epsilon_fraction=epsilon_fraction,
        epsilon_eta=epsilon_eta,
        kappa_max=kappa_max,
        sample_size=sample_size,
        seed=seed,
        workers=workers,
    )
    return builder.build(road_graph)
