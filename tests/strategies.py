"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st


@st.composite
def graphs_with_labels(draw, max_nodes: int = 40, max_labels: int = 4):
    """A symmetric weighted CSR adjacency (possibly disconnected, possibly
    edgeless) and a label per node in ``0..max_labels-1``."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    rows = [u for u, v in pairs] + [v for u, v in pairs]
    cols = [v for u, v in pairs] + [u for u, v in pairs]
    adj = sp.csr_matrix((weights + weights, (rows, cols)), shape=(n, n), dtype=float)
    labels = np.array(draw(st.lists(st.integers(0, max_labels - 1), min_size=n, max_size=n)))
    return adj, labels


@st.composite
def kmeans_1d_problems(draw, max_n: int = 40):
    """1-D k-means inputs and a list of kappa in ``1..n``.

    Values are continuous, tie-heavy (a few levels) or constant; ties
    and constants leave clusters empty and force re-seeds.
    """
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["continuous", "ties", "constant"]))
    if kind == "continuous":
        values = draw(
            st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)
        )
    elif kind == "ties":
        levels = draw(st.integers(1, 4))
        steps = draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))
        values = [0.125 * step for step in steps]
    else:
        values = [draw(st.floats(min_value=0.0, max_value=5.0))] * n
    kappas = draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    return np.asarray(values, dtype=float), kappas


@st.composite
def road_graphs_with_densities(draw, max_nodes: int = 40):
    """A :func:`graphs_with_labels` graph with up to three isolated nodes
    appended, and a density per node: continuous, tie-heavy or constant
    (ties and constants leave supernodes that cannot split)."""
    adj, __ = draw(graphs_with_labels(max_nodes=max_nodes))
    isolated = draw(st.integers(0, 3))
    adj = sp.block_diag([adj, sp.csr_matrix((isolated, isolated))], format="csr")
    n = adj.shape[0]
    kind = draw(st.sampled_from(["continuous", "ties", "constant"]))
    if kind == "continuous":
        values = draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n))
    elif kind == "ties":
        values = [0.125 * s for s in draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))]
    else:
        values = [draw(st.floats(min_value=0.0, max_value=5.0))] * n
    return adj, np.asarray(values, dtype=float)
