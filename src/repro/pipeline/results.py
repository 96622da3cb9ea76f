"""Partitioning result container and metric evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.adjacency import Graph
from repro.metrics.ans import ans
from repro.metrics.distances import inter_metric, intra_metric
from repro.metrics.gdbi import gdbi
from repro.metrics.validation import validate_partitioning


@dataclass
class PartitioningResult:
    """Outcome of one framework run.

    Attributes
    ----------
    labels:
        Partition index per road-graph node (road segment).
    scheme:
        Scheme identifier (``"AG"``, ``"ASG"``, ``"NG"``, ``"NSG"``,
        ``"JG"`` ...).
    k:
        Number of partitions produced.
    timings:
        Wall-clock seconds per framework module (``module1`` road
        graph construction, ``module2`` supergraph mining, ``module3``
        partitioning) when measured by the framework. Dotted keys
        (``module2.scan``, ...) are fine-grained sub-timings already
        contained in their module's total.
    n_supernodes:
        Supergraph order, for supergraph-based schemes.
    eigensolver:
        Outcome record of the alpha-Cut embedding eigensolve (solver
        used, n and k, residual at exit, converged flag, fallback
        reason) — see :func:`repro.core.spectral.last_eigensolver_outcome`.
        None for schemes that never ran it (NG/NSG/JG).
    manifest:
        Run manifest (config, seed, package versions, platform, git
        SHA, timestamp) attached by the framework; see
        :func:`repro.obs.manifest.run_manifest`.
    """

    labels: np.ndarray
    scheme: str = ""
    k: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    n_supernodes: Optional[int] = None
    eigensolver: Optional[Dict] = None
    manifest: Optional[Dict] = None

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.size == 0:
            raise PartitioningError("result has no labels")
        if self.k == 0:
            self.k = int(self.labels.max()) + 1

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across the recorded modules.

        Dotted sub-timings are excluded — they are breakdowns of time
        already accounted for by their parent module.
        """
        return sum(v for name, v in self.timings.items() if "." not in name)

    def evaluate(self, road_graph: Graph) -> Dict[str, float]:
        """All Section 6.2 metrics of this partitioning on ``road_graph``.

        Returns a dict with keys ``inter`` (higher better), ``intra``,
        ``gdbi``, ``ans`` (all lower better) and ``k``.
        """
        feats = road_graph.features
        adj = road_graph.adjacency
        return {
            "k": float(self.k),
            "inter": inter_metric(feats, self.labels, adj),
            "intra": intra_metric(feats, self.labels),
            "gdbi": gdbi(feats, self.labels, adj),
            "ans": ans(feats, self.labels, adj),
        }

    def validate(self, road_graph: Graph):
        """C.1/C.2 validation of this partitioning on ``road_graph``."""
        return validate_partitioning(road_graph.adjacency, self.labels)

    def partition_sizes(self) -> np.ndarray:
        """Node count per partition."""
        return np.bincount(self.labels, minlength=self.k)
