"""Synthetic road network generators.

The paper evaluates on Downtown San Francisco (420 segments) and three
Melbourne extracts (17k-80k segments). Those datasets are proprietary
to the original authors / OpenStreetMap snapshots we cannot fetch
offline, so this module generates the closest synthetic equivalents:

* :func:`grid_network` — a Manhattan grid, the topology class of a
  dense downtown such as the D1 network;
* :func:`ring_radial_network` — a ring-and-radial layout typical of
  European-style centres, used for diversity in tests and examples;
* :func:`urban_network` — a scalable metropolis: a dense CBD grid
  surrounded by sparser suburban blocks, with jittered intersection
  positions, randomly removed streets (keeping the network connected)
  and a mix of one-way and two-way streets. Parameterised to the
  paper's segment counts for the M1/M2/M3 analogues.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.exceptions import NetworkError
from repro.network.model import RoadNetwork
from repro.util.rng import RngLike, ensure_rng


def _build_network(
    xs: np.ndarray,
    ys: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    two_way: np.ndarray,
    speed_limits: Optional[np.ndarray] = None,
) -> RoadNetwork:
    """Assemble a RoadNetwork from undirected streets ``u[k] - v[k]``.

    Intersection ``i`` sits at ``(xs[i], ys[i])``. Street ``k`` becomes
    segment ``u -> v`` and, when ``two_way[k]``, the next segment id
    ``v -> u``. Lengths stay on :func:`math.hypot`, the function
    :meth:`Point.distance_to` uses (``np.hypot`` rounds differently).
    """
    lengths = np.fromiter(
        map(math.hypot, (xs[u] - xs[v]).tolist(), (ys[u] - ys[v]).tolist()),
        dtype=float,
        count=u.size,
    )
    bad = np.flatnonzero(lengths <= 0)
    if bad.size:
        k = int(bad[0])
        raise NetworkError(f"street ({int(u[k])}, {int(v[k])}) has zero length")
    # one segment per street, a second (reversed) one per two-way street
    street = np.repeat(np.arange(u.size), np.where(two_way, 2, 1))
    reverse = np.zeros(street.size, dtype=bool)
    reverse[1:] = street[1:] == street[:-1]
    return RoadNetwork.from_arrays(
        xs,
        ys,
        np.where(reverse, v[street], u[street]),
        np.where(reverse, u[street], v[street]),
        lengths[street],
        speed_limit=None if speed_limits is None else speed_limits[street],
    )


def _grid_streets(n_rows: int, n_cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Streets ``(u, v)`` of an ``n_rows x n_cols`` grid with node
    ``r * n_cols + c``: per node in id order, the street to its right
    neighbour, then the one to the neighbour below."""
    node = np.arange(n_rows * n_cols)
    r, c = np.divmod(node, n_cols)
    u = np.repeat(node, 2)
    v = np.column_stack((node + 1, node + n_cols)).ravel()
    exists = np.column_stack((c + 1 < n_cols, r + 1 < n_rows)).ravel()
    return u[exists], v[exists]


def _remove_streets(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of streets to keep after random removal, staying connected.

    A random spanning tree of the street graph is computed first
    (Kruskal over a shuffled edge order: the minimum spanning tree
    with each street weighted by its rank in the shuffle, unique since
    the ranks differ); tree streets are protected from removal, so
    connectivity is preserved by construction. Up to ``fraction`` of
    all streets are then removed from the non-tree candidates, in
    shuffle order. The streets must be simple (no repeated pair).
    """
    if not 0.0 <= fraction < 1.0:
        raise NetworkError(f"removal fraction must be in [0, 1), got {fraction}")
    m = u.size
    target_removals = int(round(fraction * m))
    if target_removals == 0 or m == 0:
        return np.arange(m)

    order = rng.permutation(m)
    rank = np.empty(m)
    rank[order] = np.arange(1, m + 1)
    tree = minimum_spanning_tree(sp.csr_matrix((rank, (u, v)), shape=(n, n)))
    in_tree = np.zeros(m, dtype=bool)
    in_tree[order[tree.data.astype(np.int64) - 1]] = True

    keep = np.ones(m, dtype=bool)
    keep[order[~in_tree[order]][:target_removals]] = False
    return np.flatnonzero(keep)


def grid_network(
    n_rows: int,
    n_cols: int,
    spacing: float = 100.0,
    two_way: bool = True,
    seed: RngLike = None,
) -> RoadNetwork:
    """A regular Manhattan grid of ``n_rows x n_cols`` intersections.

    Parameters
    ----------
    n_rows, n_cols:
        Grid dimensions; both must be at least 2.
    spacing:
        Block edge length in metres.
    two_way:
        When True every street carries both directions (two directed
        segments); when False all streets are one-way in a consistent
        boustrophedon pattern so the network stays strongly usable.
    seed:
        Unused for the regular grid (kept for interface symmetry).
    """
    if n_rows < 2 or n_cols < 2:
        raise NetworkError("grid_network needs n_rows >= 2 and n_cols >= 2")
    if spacing <= 0:
        raise NetworkError(f"spacing must be positive, got {spacing}")

    r, c = np.divmod(np.arange(n_rows * n_cols), n_cols)
    u, v = _grid_streets(n_rows, n_cols)
    if not two_way:
        # alternate one-way direction per row (horizontal streets) and
        # per column (vertical streets)
        ur, uc = np.divmod(u, n_cols)
        flip = np.where(v == u + 1, ur % 2 == 1, uc % 2 == 1)
        u, v = np.where(flip, v, u), np.where(flip, u, v)
    return _build_network(
        c * spacing, r * spacing, u, v, np.full(u.size, two_way, dtype=bool)
    )


def ring_radial_network(
    n_rings: int,
    n_radials: int,
    ring_spacing: float = 200.0,
    two_way: bool = True,
    seed: RngLike = None,
) -> RoadNetwork:
    """Concentric rings joined by radial avenues around a central hub.

    Produces ``1 + n_rings * n_radials`` intersections: a hub plus
    ``n_radials`` points on each ring. Each ring is a cycle; radials
    join consecutive rings (and the hub to the first ring).
    """
    if n_rings < 1 or n_radials < 3:
        raise NetworkError("ring_radial_network needs n_rings >= 1, n_radials >= 3")
    if ring_spacing <= 0:
        raise NetworkError(f"ring_spacing must be positive, got {ring_spacing}")

    xs, ys = [0.0], [0.0]
    for ring in range(1, n_rings + 1):
        radius = ring * ring_spacing
        for k in range(n_radials):
            angle = 2.0 * math.pi * k / n_radials
            xs.append(radius * math.cos(angle))
            ys.append(radius * math.sin(angle))

    def node(ring: int, k: int) -> int:
        # ring >= 1
        return 1 + (ring - 1) * n_radials + (k % n_radials)

    streets: List[Tuple[int, int]] = []
    for ring in range(1, n_rings + 1):
        for k in range(n_radials):
            streets.append((node(ring, k), node(ring, k + 1)))  # ring edge
            if ring == 1:
                streets.append((0, node(1, k)))  # hub spoke
            else:
                streets.append((node(ring - 1, k), node(ring, k)))  # radial

    u, v = np.array(streets, dtype=np.int64).T
    return _build_network(
        np.array(xs), np.array(ys), u, v, np.full(u.size, two_way, dtype=bool)
    )


def urban_network(
    n_rows: int,
    n_cols: int,
    spacing: float = 120.0,
    cbd_fraction: float = 0.3,
    two_way_fraction: float = 0.6,
    removal_fraction: float = 0.08,
    jitter: float = 0.15,
    seed: RngLike = None,
) -> RoadNetwork:
    """A scalable synthetic metropolis network.

    Starts from an ``n_rows x n_cols`` grid, then:

    * jitters intersection coordinates by up to ``jitter * spacing`` so
      block lengths vary like real city blocks;
    * removes ``removal_fraction`` of streets at random while keeping
      the street graph connected (dead-ends and irregular blocks);
    * marks a central square region covering ``cbd_fraction`` of each
      dimension as the CBD: CBD streets are always two-way (dense core
      circulation) while outside the CBD only ``two_way_fraction`` of
      streets are two-way;
    * assigns higher speed limits to long peripheral streets
      (arterials) than to core streets.

    The returned network's segment count scales as roughly
    ``(2 - removal) * (1 + two_way share) * n_rows * n_cols``; use
    :func:`repro.datasets.large.melbourne_like` for the paper-sized
    presets.
    """
    if n_rows < 2 or n_cols < 2:
        raise NetworkError("urban_network needs n_rows >= 2 and n_cols >= 2")
    if spacing <= 0:
        raise NetworkError(f"spacing must be positive, got {spacing}")
    if not 0.0 <= cbd_fraction <= 1.0:
        raise NetworkError(f"cbd_fraction must be in [0, 1], got {cbd_fraction}")
    if not 0.0 <= two_way_fraction <= 1.0:
        raise NetworkError(
            f"two_way_fraction must be in [0, 1], got {two_way_fraction}"
        )
    if not 0.0 <= jitter < 0.5:
        raise NetworkError(f"jitter must be in [0, 0.5), got {jitter}")

    rng = ensure_rng(seed)

    offsets = rng.uniform(-jitter * spacing, jitter * spacing, size=(n_rows, n_cols, 2))
    r, c = np.divmod(np.arange(n_rows * n_cols), n_cols)
    xs = c * spacing + offsets[..., 0].ravel()
    ys = r * spacing + offsets[..., 1].ravel()

    u, v = _grid_streets(n_rows, n_cols)
    kept = _remove_streets(n_rows * n_cols, u, v, removal_fraction, rng)
    u, v = u[kept], v[kept]

    # CBD bounds (central square region)
    r_lo = (1.0 - cbd_fraction) / 2.0 * (n_rows - 1)
    r_hi = (1.0 + cbd_fraction) / 2.0 * (n_rows - 1)
    c_lo = (1.0 - cbd_fraction) / 2.0 * (n_cols - 1)
    c_hi = (1.0 + cbd_fraction) / 2.0 * (n_cols - 1)
    in_cbd = (r_lo <= r) & (r <= r_hi) & (c_lo <= c) & (c <= c_hi)

    # CBD streets are two-way 40 km/h core streets; every other street
    # is a 60 km/h suburban arterial, two-way with one draw each
    cbd_street = in_cbd[u] & in_cbd[v]
    two_way = cbd_street.copy()
    two_way[~cbd_street] = rng.random(int((~cbd_street).sum())) < two_way_fraction
    speed_limits = np.where(cbd_street, 11.1, 16.7)

    return _build_network(xs, ys, u, v, two_way, speed_limits)
