"""Supernodes: clusters of adjacent, similar-density road segments.

A supernode (Definition 6) is a set of road-graph nodes that were
grouped into the same k-means cluster *and* are interlinked in the
road graph. They are computed as the connected components of the
subgraph that keeps only same-cluster edges (Algorithm 1, line 17).

Module 2 keeps a supernode set as two arrays: ``member_of`` (road node
→ supernode id) and ``features`` (one value per supernode id).
:class:`Supernode` objects are built from them only on request
(:attr:`repro.supergraph.Supergraph.supernodes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.components import constrained_components


@dataclass
class Supernode:
    """A supernode ς: member road-graph nodes plus a feature value.

    Attributes
    ----------
    id:
        Dense supernode id within its supergraph.
    members:
        Road-graph node ids (segment ids) belonging to this supernode.
    feature:
        The supernode feature ς.f — the mean density of the k-means
        cluster it came from (or the member mean after a stability
        split).
    """

    id: int
    members: np.ndarray
    feature: float

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=int)
        if self.members.size == 0:
            raise GraphError(f"supernode {self.id} has no members")

    @property
    def size(self) -> int:
        """Number of member nodes |ς|."""
        return int(self.members.size)

    def member_mean(self, features: Sequence[float]) -> float:
        """Mean of the members' own feature values μ(ς)."""
        arr = np.asarray(features, dtype=float)
        return float(arr[self.members].mean())


def member_means(member_of: np.ndarray, values: np.ndarray, n_supernodes: int) -> np.ndarray:
    """Mean of ``values`` over each supernode's members.

    Bit-identical to ``values[members].mean()`` with the members in
    ascending order: supernodes of one size are stacked into a
    C-contiguous matrix and averaged along its rows, which numpy sums
    pairwise exactly as it sums a 1-D mean. (A ``bincount`` sums
    sequentially and moves the last bits of every supernode with eight
    or more members.) Every supernode needs at least one member.
    """
    order = np.argsort(member_of, kind="stable")
    sizes = np.bincount(member_of, minlength=n_supernodes)
    starts = np.cumsum(sizes) - sizes
    grouped = values[order]
    by_size = np.argsort(sizes, kind="stable")
    out = np.empty(n_supernodes)
    for ids in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        if ids.size:
            rows = starts[ids, None] + np.arange(sizes[ids[0]])
            out[ids] = grouped[rows].mean(axis=1)
    return out


def create_supernodes(
    adjacency,
    labels: Sequence[int],
    cluster_means: Optional[Sequence[float]] = None,
    features: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Create supernodes from a clustering indicator vector.

    Parameters
    ----------
    adjacency:
        Road-graph adjacency matrix (sparse or dense, symmetric) or its
        :class:`repro.graph.components.EdgeList`.
    labels:
        Cluster index per road-graph node (the indicator vector ρ).
    cluster_means:
        Mean feature value per cluster index. When given, each
        supernode's feature is the mean of the cluster it belongs to
        (Algorithm 1, lines 18-20). Otherwise ``features`` must be
        given and the member mean is used.
    features:
        Per-node feature values, used when ``cluster_means`` is absent.

    Returns
    -------
    (member_of, features): the supernode id of every road-graph node,
    ids dense in component-discovery order, and the feature of every
    supernode id.
    """
    if cluster_means is None and features is None:
        raise GraphError("create_supernodes needs cluster_means or features")
    labels = np.asarray(labels, dtype=int)
    member_of = constrained_components(adjacency, labels)
    return member_of, supernode_features(member_of, labels, cluster_means, features)


def supernode_features(
    member_of: np.ndarray,
    labels: np.ndarray,
    cluster_means: Optional[Sequence[float]] = None,
    features: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """The feature of every supernode id of ``member_of``: its cluster's
    mean when ``cluster_means`` is given, else its members' mean of
    ``features`` (see :func:`create_supernodes`)."""
    n_super = int(member_of.max()) + 1 if member_of.size else 0
    if cluster_means is None:
        return member_means(member_of, np.asarray(features, dtype=float), n_super)
    means = np.asarray(cluster_means, dtype=float)
    # every member of a supernode carries its cluster's label
    clusters = np.empty(n_super, dtype=int)
    clusters[member_of] = labels
    bad = np.flatnonzero(clusters >= means.size)
    if bad.size:
        raise GraphError(
            f"cluster index {int(clusters[bad[0]])} out of range for "
            f"{means.size} cluster means"
        )
    return means[clusters]
