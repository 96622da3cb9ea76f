"""Per-region congestion reports.

Summarises a partitioning the way a traffic-management centre would
read it: how many segments and kilometres each region covers, its mean
and spread of density, and a level-of-service classification against
the conventional urban jam density of 0.15 veh/m/lane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import PartitioningError
from repro.network.model import RoadNetwork

JAM_DENSITY = 0.15  # veh/m/lane, the conventional urban jam density


class CongestionLevel(enum.Enum):
    """Coarse level-of-service classes by density/jam-density ratio."""

    FREE_FLOW = "free_flow"  # < 20% of jam
    MODERATE = "moderate"  # 20-50%
    DENSE = "dense"  # 50-80%
    JAMMED = "jammed"  # >= 80%


def classify_level(density: float, jam_density: float = JAM_DENSITY) -> CongestionLevel:
    """Level-of-service class for a mean density in veh/m/lane."""
    if density < 0:
        raise PartitioningError(f"density must be non-negative, got {density}")
    if jam_density <= 0:
        raise PartitioningError(f"jam_density must be positive, got {jam_density}")
    ratio = density / jam_density
    if ratio < 0.2:
        return CongestionLevel.FREE_FLOW
    if ratio < 0.5:
        return CongestionLevel.MODERATE
    if ratio < 0.8:
        return CongestionLevel.DENSE
    return CongestionLevel.JAMMED


@dataclass
class RegionReport:
    """Summary of one congestion region."""

    region: int
    n_segments: int
    total_length_km: float
    mean_density: float
    std_density: float
    max_density: float
    level: CongestionLevel

    def __str__(self) -> str:
        return (
            f"region {self.region}: {self.n_segments} segments, "
            f"{self.total_length_km:.1f} km, "
            f"density {self.mean_density:.4f}±{self.std_density:.4f} veh/m "
            f"({self.level.value})"
        )


def partition_report(
    network: RoadNetwork,
    labels,
    densities: Optional[Sequence[float]] = None,
    jam_density: float = JAM_DENSITY,
) -> List[RegionReport]:
    """Per-region reports for a partitioning of ``network``.

    Parameters
    ----------
    network:
        The road network the labels partition (by segment id).
    labels:
        Partition index per segment.
    densities:
        Density vector; defaults to the network's stored densities.
    jam_density:
        Jam density used for level-of-service classification.
    """
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (network.n_segments,):
        raise PartitioningError(
            f"labels must have shape ({network.n_segments},), got {lab.shape}"
        )
    feats = (
        network.densities()
        if densities is None
        else np.asarray(densities, dtype=float)
    )
    if feats.shape != lab.shape:
        raise PartitioningError(
            f"densities shape {feats.shape} does not match labels {lab.shape}"
        )
    lengths = network.segment_lengths()

    reports: List[RegionReport] = []
    for region in range(int(lab.max()) + 1):
        members = np.flatnonzero(lab == region)
        if members.size == 0:
            raise PartitioningError(f"partition {region} is empty")
        mean = float(feats[members].mean())
        reports.append(
            RegionReport(
                region=region,
                n_segments=int(members.size),
                total_length_km=float(lengths[members].sum() / 1000.0),
                mean_density=mean,
                std_density=float(feats[members].std()),
                max_density=float(feats[members].max()),
                level=classify_level(mean, jam_density),
            )
        )
    return reports
