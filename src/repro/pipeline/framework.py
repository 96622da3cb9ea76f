"""The complete three-module framework (paper Figure 2).

:class:`SpatialPartitioningFramework` accepts a real road network plus
its densities, runs

* **module 1** — road graph construction (the dual transform),
* **module 2** — road supergraph mining (skipped by direct schemes),
* **module 3** — (super)graph partitioning,

and reports per-module wall-clock timings, reproducing the structure
of the paper's Table 3.

Observability: pass an :class:`repro.obs.ObsContext` and the run is
traced end to end — a root ``run`` span containing the per-module
spans and their fine-grained children, algorithm-level metrics from
every stage, and run-scoped log records. Every result additionally
carries a reproducibility manifest (config, seed, versions, platform,
git SHA), whether or not observability is enabled.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.network.dual import build_road_graph
from repro.network.model import RoadNetwork
from repro.obs.context import ObsContext
from repro.obs.logs import get_logger
from repro.obs.profile import ProfileConfig
from repro.obs.manifest import run_manifest
from repro.pipeline.results import PartitioningResult
from repro.pipeline.schemes import SCHEMES, run_scheme
from repro.util.rng import RngLike
from repro.util.timer import ModuleTimer

logger = get_logger("pipeline.framework")


class SpatialPartitioningFramework:
    """Congestion-based spatial partitioning of an urban road network.

    Parameters
    ----------
    k:
        Desired number of partitions.
    scheme:
        Evaluation scheme — ``"ASG"`` (default: alpha-Cut on the
        supergraph, the paper's scalable configuration), ``"AG"``,
        ``"NG"``, ``"NSG"`` or ``"JG"``.
    epsilon_eta:
        Supernode stability threshold in [0, 1] for supergraph schemes.
    epsilon_theta:
        Absolute MCG threshold; when None a scale-free fraction of the
        maximum MCG is used (``epsilon_fraction``).
    epsilon_fraction, kappa_max, sample_size:
        Remaining supergraph-mining parameters (see
        :class:`repro.supergraph.SupergraphBuilder`).
    seed:
        Reproducibility seed.
    workers:
        Worker count for the parallel supergraph-mining loops;
        ``None`` defers to the ``REPRO_NUM_WORKERS`` environment
        variable (serial when unset), ``0`` means one worker per
        core. Results are identical for every worker count. Unsharded
        mining runs its loops on threads; with ``n_shards`` the
        per-shard mining runs in processes.
    n_shards:
        When given, supergraph schemes mine geographic shards in
        separate workers and stitch the boundaries (see
        :class:`repro.shard.ShardedSupergraphBuilder`); ``partition``
        derives the spatial split from the network's segment
        midpoints. ``None`` keeps the whole-graph builder.
    obs:
        Optional :class:`repro.obs.ObsContext`. When given, every
        ``partition`` call runs inside the context — hierarchical
        spans land on ``obs.tracer``, algorithm counters on
        ``obs.metrics``, and log records carry the run id. When
        omitted the instrumentation is a no-op.
    profile:
        Optional :class:`repro.obs.profile.ProfileConfig`. When given,
        runs execute under the sampling CPU / memory profiler: a fresh
        :class:`ObsContext` is created when ``obs`` is omitted,
        otherwise profiling is enabled on the passed context. Spans
        then carry ``cpu_self_s`` / ``cpu_total_s`` (and
        ``alloc_bytes`` with memory tracking) attributes, and the
        profile is exportable via ``framework.obs.write_profile``.

    Examples
    --------
    >>> from repro.datasets import small_network
    >>> network, densities = small_network(seed=7)
    >>> network.set_densities(densities)
    >>> framework = SpatialPartitioningFramework(k=6, scheme="ASG", seed=7)
    >>> result = framework.partition(network)
    >>> result.k
    6
    """

    def __init__(
        self,
        k: int,
        scheme: str = "ASG",
        epsilon_eta: float = 0.0,
        epsilon_theta: Optional[float] = None,
        epsilon_fraction: float = 0.995,
        kappa_max: Optional[int] = None,
        sample_size: Optional[int] = None,
        seed: RngLike = None,
        workers: Optional[int] = None,
        n_shards: Optional[int] = None,
        obs: Optional[ObsContext] = None,
        profile: Optional[ProfileConfig] = None,
    ) -> None:
        if k < 1:
            raise PartitioningError(f"k must be positive, got {k}")
        scheme = scheme.upper()
        if scheme not in SCHEMES:
            raise PartitioningError(
                f"unknown scheme {scheme!r}; pick one of {SCHEMES}"
            )
        self._k = int(k)
        self._scheme = scheme
        self._epsilon_eta = epsilon_eta
        self._epsilon_theta = epsilon_theta
        self._epsilon_fraction = epsilon_fraction
        self._kappa_max = kappa_max
        self._sample_size = sample_size
        self._seed = seed
        self._workers = workers
        self._n_shards = n_shards
        if profile is not None:
            if obs is None:
                obs = ObsContext(profile=profile)
            else:
                obs.enable_profiling(profile)
        self._obs = obs
        self.last_road_graph: Optional[Graph] = None

    @property
    def obs(self) -> Optional[ObsContext]:
        """The observability context attached to this framework, if any."""
        return self._obs

    def config_dict(self) -> Dict:
        """The framework configuration as a JSON-serialisable dict."""
        return {
            "k": self._k,
            "scheme": self._scheme,
            "epsilon_eta": self._epsilon_eta,
            "epsilon_theta": self._epsilon_theta,
            "epsilon_fraction": self._epsilon_fraction,
            "kappa_max": self._kappa_max,
            "sample_size": self._sample_size,
            "workers": self._workers,
            "n_shards": self._n_shards,
        }

    def partition(
        self,
        network: RoadNetwork,
        densities: Optional[np.ndarray] = None,
    ) -> PartitioningResult:
        """Partition ``network`` using its current (or given) densities.

        Parameters
        ----------
        network:
            The road network; its per-segment densities are the
            congestion measure unless ``densities`` overrides them.
        densities:
            Optional density vector (vehicles/metre per segment id),
            e.g. one timestamp of a simulation series.
        """
        obs = self._obs
        with obs.activate() if obs is not None else nullcontext():
            span = (
                obs.tracer.span(
                    "run",
                    scheme=self._scheme,
                    k=self._k,
                    n_segments=network.n_segments,
                )
                if obs is not None
                else nullcontext()
            )
            with span:
                logger.info(
                    "partitioning %d segments with %s (k=%d)",
                    network.n_segments,
                    self._scheme,
                    self._k,
                )
                timer = ModuleTimer()
                with timer.time("module1"):
                    road_graph = build_road_graph(network, timer=timer)
                    if densities is not None:
                        road_graph = road_graph.with_features(densities)
                self.last_road_graph = road_graph
                shard_points = None
                if self._n_shards is not None and self._n_shards != 1:
                    from repro.shard.spatial import segment_midpoints

                    shard_points = segment_midpoints(network)
                result = self._run(road_graph, timer, shard_points=shard_points)
                logger.info(
                    "run finished: k=%d in %.3fs (%s)",
                    result.k,
                    timer.total,
                    ", ".join(
                        f"{name}={seconds:.3f}s"
                        for name, seconds in timer.timings.items()
                        if "." not in name
                    ),
                )
        return result

    def partition_graph(self, road_graph: Graph) -> PartitioningResult:
        """Partition an already-constructed road graph (module 1 skipped)."""
        obs = self._obs
        with obs.activate() if obs is not None else nullcontext():
            span = (
                obs.tracer.span(
                    "run",
                    scheme=self._scheme,
                    k=self._k,
                    n_nodes=road_graph.n_nodes,
                )
                if obs is not None
                else nullcontext()
            )
            with span:
                self.last_road_graph = road_graph
                result = self._run(road_graph, ModuleTimer())
        return result

    def _run(
        self,
        road_graph: Graph,
        timer: ModuleTimer,
        shard_points: Optional[np.ndarray] = None,
    ) -> PartitioningResult:
        result = run_scheme(
            self._scheme,
            road_graph,
            self._k,
            epsilon_eta=self._epsilon_eta,
            epsilon_theta=self._epsilon_theta,
            epsilon_fraction=self._epsilon_fraction,
            kappa_max=self._kappa_max,
            sample_size=self._sample_size,
            seed=self._seed,
            timer=timer,
            workers=self._workers,
            n_shards=self._n_shards,
            shard_points=shard_points,
        )
        result.timings = timer.timings
        result.manifest = run_manifest(
            config=self.config_dict(),
            seed=self._seed,
            run_id=self._obs.run_id if self._obs is not None else None,
            workers=self._workers,
            n_shards=self._n_shards,
            n_shards_resolved=result.n_shards_resolved,
            stages=self._stage_record(result),
            extra=(
                {"eigensolver": dict(result.eigensolver)}
                if result.eigensolver is not None
                else None
            ),
        )
        return result

    def _stage_record(self, result: PartitioningResult) -> Dict[str, Dict]:
        """Per-stage execution record for the run manifest.

        Modules 1 and 3 always run serially in the calling process;
        module 2 (supergraph mining) is the stage the worker and shard
        counts drive, so its entry records the pool the run used: only
        mining over more than one shard hands its map a shard context.
        """
        from repro.util.parallel import pool_kind, resolve_workers

        stages: Dict[str, Dict] = {
            "module1": {"pool": "serial", "workers": 1},
            "module3": {"pool": "serial", "workers": 1},
        }
        if self._scheme in ("ASG", "NSG"):
            workers = resolve_workers(self._workers)
            n_shards = result.n_shards_resolved
            sharded = n_shards is not None and n_shards > 1
            stages["module2"] = {
                "pool": pool_kind(workers, sharded),
                "workers": workers,
                "n_shards": n_shards,
            }
        return stages
