"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.network.dual import build_road_graph
from repro.network.generators import grid_network
from repro.traffic.profiles import hotspot_profile


@pytest.fixture
def two_cliques() -> Graph:
    """Two 4-cliques joined by a single bridge edge — the canonical
    partitioning sanity graph (best 2-cut separates the cliques)."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    edges.append((3, 4))  # bridge
    features = [1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]
    return Graph(8, edges=edges, features=features)


@pytest.fixture
def path_graph() -> Graph:
    """A 6-node path with a density step in the middle."""
    edges = [(i, i + 1) for i in range(5)]
    features = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    return Graph(6, edges=edges, features=features)


@pytest.fixture(scope="session")
def small_grid():
    """A 5x5 two-way grid network (80 directed segments)."""
    return grid_network(5, 5, spacing=100.0, two_way=True)


@pytest.fixture(scope="session")
def small_grid_graph(small_grid):
    """Road graph of the 5x5 grid with hotspot densities."""
    graph = build_road_graph(small_grid)
    densities = hotspot_profile(small_grid, n_hotspots=2, seed=42)
    return graph.with_features(densities)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
