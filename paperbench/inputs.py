"""Seeded inputs: networks, density snapshots and drifting density streams.

Densities follow the program's hotspot mixture (``repro.traffic.
hotspot_profile``: a CBD hotspot at the centroid plus secondary ones at
40-80% strength, Gaussian decay, log-normal noise) but are evaluated on
midpoints computed once per network, so a whole sequence costs a few
vectorised passes instead of a Python loop over segments per snapshot.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

PEAK = 0.12
BACKGROUND = 0.005
NOISE = 0.15


# The road networks are fixed instances, as the paper's M1/M2/M3 are;
# the benchmark seed varies the traffic on them.
NETWORK_SEED = 0


def network(preset: str, size_factor: float):
    """A Melbourne-like network (the program's M1/M2/M3 generator)."""
    from repro.datasets import melbourne_like

    net, __ = melbourne_like(preset, size_factor=size_factor, seed=NETWORK_SEED)
    return net


def midpoints(net) -> np.ndarray:
    from repro.shard.spatial import segment_midpoints

    return np.asarray(segment_midpoints(net), dtype=float)


class HotspotField:
    """Hotspot centres/strengths over one network's midpoints."""

    def __init__(self, mids: np.ndarray, rng: np.random.Generator,
                 n_hotspots: int = 5, decay: float = 0.25) -> None:
        self.mids = mids
        self.rng = rng
        self.lo = mids.min(axis=0)
        self.hi = mids.max(axis=0)
        diagonal = float(np.hypot(*(self.hi - self.lo))) or 1.0
        self.two_r2 = 2.0 * (decay * diagonal) ** 2
        self.centres = np.vstack([mids.mean(axis=0)] + [self._spot() for __ in range(n_hotspots - 1)])
        self.strengths = np.concatenate(
            [[PEAK], PEAK * rng.uniform(0.4, 0.8, size=n_hotspots - 1)])

    def _spot(self) -> np.ndarray:
        return self.lo + self.rng.random(2) * (self.hi - self.lo)

    def respawn(self, i: int) -> None:
        """Move hotspot ``i`` to a fresh random place and strength."""
        self.centres[i] = self._spot()
        self.strengths[i] = PEAK * self.rng.uniform(0.4, 1.0)

    def densities(self, noise_rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Densities of the current layout; noise from ``noise_rng`` (default: own rng)."""
        density = np.full(len(self.mids), BACKGROUND)
        for centre, strength in zip(self.centres, self.strengths):
            d2 = ((self.mids - centre) ** 2).sum(axis=1)
            density += strength * np.exp(-d2 / self.two_r2)
        rng = self.rng if noise_rng is None else noise_rng
        density *= rng.lognormal(0.0, NOISE, size=density.shape)
        return density


def snapshots(mids: np.ndarray, n: int, layout_rng: np.random.Generator,
              noise_rng: np.random.Generator) -> List[np.ndarray]:
    """``n`` density snapshots, each with its own hotspot layout drawn
    from ``layout_rng`` and its noise from ``noise_rng``."""
    return [HotspotField(mids, layout_rng).densities(noise_rng) for __ in range(n)]


def drift_episodes(mids: np.ndarray, n_episodes: int, n_steps: int,
                   rng: np.random.Generator, decay: float = 0.1
                   ) -> Tuple[np.ndarray, List[List[np.ndarray]]]:
    """A start snapshot plus ``n_episodes`` drifting continuations.

    The congestion scenario is fixed, like the networks: the start
    layout and every hotspot move come from ``NETWORK_SEED``, so every
    seed bootstraps the same partition and replays the same moves. At
    each step one of the five hotspots respawns elsewhere, so congestion
    moves in space; narrow hotspots (``decay`` 0.1) make the moves show
    in region means, where the repartitioner's staleness test looks.
    ``rng`` draws the per-step density noise.
    An update's cost depends on which regions a move makes stale
    (0.02 s to 1.6 s on M2), so drawing the moves per seed would leave
    a run's few dozen updates too small a sample to be steady.
    """
    scenario = np.random.default_rng(NETWORK_SEED)
    base = HotspotField(mids, scenario, decay=decay)
    start = base.densities()
    layout = (base.centres.copy(), base.strengths.copy())
    episodes = []
    for __ in range(n_episodes):
        base.centres, base.strengths = layout[0].copy(), layout[1].copy()
        steps = []
        for __ in range(n_steps):
            base.respawn(int(scenario.integers(len(base.centres))))
            steps.append(base.densities(rng))
        episodes.append(steps)
    return start, episodes
