"""Fast synthetic congestion fields.

Running a full microsimulation on an 80k-segment network is costly, so
the large-network datasets can instead draw densities from a *hotspot
mixture*: congestion concentrates around a handful of centres (the CBD,
stations, venues — the spatial structure the paper's introduction
motivates) and decays smoothly with distance, plus log-normal noise.
This produces spatially-correlated, regionally-distinct densities with
the same statistical shape as the simulated/MNTG data, at O(n) cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.network.model import RoadNetwork
from repro.util.rng import RngLike, ensure_rng


def hotspot_profile(
    network: RoadNetwork,
    n_hotspots: int = 4,
    peak_density: float = 0.12,
    background: float = 0.005,
    decay: float = 0.25,
    noise: float = 0.15,
    hotspots: Optional[Sequence[Tuple[float, float]]] = None,
    seed: RngLike = None,
) -> np.ndarray:
    """Per-segment densities from a Gaussian hotspot mixture.

    Parameters
    ----------
    network:
        Road network; densities are evaluated at segment midpoints.
    n_hotspots:
        Number of congestion centres to sample (ignored when
        ``hotspots`` is given). The first hotspot is always placed at
        the network centroid — the CBD — with the largest peak.
    peak_density:
        Density at the centre of the strongest hotspot (veh/m). The
        urban jam density is ~0.15 veh/m/lane, so the default 0.12
        represents heavy congestion.
    background:
        Free-flow background density far from every hotspot.
    decay:
        Hotspot radius as a fraction of the network's bounding-box
        diagonal; larger values spread congestion wider.
    noise:
        Multiplicative log-normal noise sigma (0 disables noise).
    hotspots:
        Optional explicit hotspot coordinates ``(x, y)`` in metres.
    seed:
        Reproducibility seed.

    Returns
    -------
    numpy.ndarray:
        Density per segment id, vehicles/metre, non-negative.
    """
    if network.n_segments == 0:
        raise DataError("network has no segments")
    if peak_density <= 0 or background < 0:
        raise DataError("peak_density must be positive and background non-negative")
    if decay <= 0:
        raise DataError(f"decay must be positive, got {decay}")
    if noise < 0:
        raise DataError(f"noise must be non-negative, got {noise}")
    rng = ensure_rng(seed)

    mids = network.segment_midpoints()
    min_xy = mids.min(axis=0)
    max_xy = mids.max(axis=0)
    diagonal = float(np.hypot(*(max_xy - min_xy)))
    if diagonal == 0:
        diagonal = 1.0
    radius = decay * diagonal

    if hotspots is None:
        if n_hotspots < 1:
            raise DataError(f"n_hotspots must be positive, got {n_hotspots}")
        centres = [mids.mean(axis=0)]  # CBD at the centroid
        for __ in range(n_hotspots - 1):
            centres.append(min_xy + rng.random(2) * (max_xy - min_xy))
        centres = np.asarray(centres)
    else:
        centres = np.asarray(hotspots, dtype=float)
        if centres.ndim != 2 or centres.shape[1] != 2:
            raise DataError("hotspots must be a sequence of (x, y) pairs")

    # strongest peak at the CBD, secondary hotspots at 40-80% strength
    strengths = np.empty(len(centres))
    strengths[0] = peak_density
    if len(centres) > 1:
        strengths[1:] = peak_density * rng.uniform(0.4, 0.8, size=len(centres) - 1)

    density = np.full(network.n_segments, background, dtype=float)
    for centre, strength in zip(centres, strengths):
        d2 = ((mids - centre) ** 2).sum(axis=1)
        density += strength * np.exp(-d2 / (2.0 * radius**2))

    if noise > 0:
        density *= rng.lognormal(mean=0.0, sigma=noise, size=density.shape)
    return np.maximum(density, 0.0)


def peak_hour_series(
    network: RoadNetwork,
    n_steps: int = 100,
    peak_step: Optional[int] = None,
    seed: RngLike = None,
    **profile_kwargs,
) -> np.ndarray:
    """A (n_steps x n_segments) density series with a morning-peak shape.

    The spatial hotspot pattern is fixed over time; its intensity
    follows a raised-cosine peak centred at ``peak_step`` (default:
    60% into the horizon), mimicking how congestion builds toward and
    dissolves after the rush hour.
    """
    if n_steps < 1:
        raise DataError(f"n_steps must be positive, got {n_steps}")
    rng = ensure_rng(seed)
    base = hotspot_profile(network, seed=rng, **profile_kwargs)
    if peak_step is None:
        peak_step = int(0.6 * n_steps)
    if not 0 <= peak_step < n_steps:
        raise DataError(f"peak_step must be in [0, {n_steps}), got {peak_step}")

    steps = np.arange(n_steps)
    width = max(n_steps / 2.0, 1.0)
    intensity = 0.25 + 0.75 * np.exp(-0.5 * ((steps - peak_step) / (width / 2.0)) ** 2)
    series = intensity[:, np.newaxis] * base[np.newaxis, :]
    if series.shape != (n_steps, network.n_segments):
        raise DataError("internal error: series shape mismatch")
    return series
