"""Supernodes: clusters of adjacent, similar-density road segments.

A supernode (Definition 6) is a set of road-graph nodes that were
grouped into the same k-means cluster *and* are interlinked in the
road graph. They are computed as the connected components of the
subgraph that keeps only same-cluster edges (Algorithm 1, line 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

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


def create_supernodes(
    adjacency,
    labels: Sequence[int],
    cluster_means: Optional[Sequence[float]] = None,
    features: Optional[Sequence[float]] = None,
) -> List[Supernode]:
    """Create supernodes from a clustering indicator vector.

    Parameters
    ----------
    adjacency:
        Road-graph adjacency matrix (sparse or dense, symmetric).
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
    list of Supernode, ids dense in component-discovery order.
    """
    labels = np.asarray(labels, dtype=int)
    comp = constrained_components(adjacency, labels)
    n_comp = int(comp.max()) + 1 if comp.size else 0

    if cluster_means is None and features is None:
        raise GraphError("create_supernodes needs cluster_means or features")
    feats = None if features is None else np.asarray(features, dtype=float)
    means = None if cluster_means is None else np.asarray(cluster_means, dtype=float)

    if n_comp == 0:
        return []
    # one stable sort groups the nodes by component with each group in
    # ascending node order; component ids are dense, so the i-th group
    # is component i
    order = np.argsort(comp, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(comp[order])) + 1))
    ends = np.append(starts[1:], comp.size)
    groups = [order[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    if means is not None:
        clusters = labels[order[starts]]
        bad = np.flatnonzero(clusters >= means.size)
        if bad.size:
            raise GraphError(
                f"cluster index {int(clusters[bad[0]])} out of range for "
                f"{means.size} cluster means"
            )
        feature_of = means[clusters].tolist()
    else:
        feature_of = [float(feats[members].mean()) for members in groups]
    return [
        Supernode(cid, members, feature)
        for cid, (members, feature) in enumerate(zip(groups, feature_of))
    ]


def membership_vector(supernodes: Sequence[Supernode], n_nodes: int) -> np.ndarray:
    """Map node id → supernode id; raises if the cover is not a partition."""
    members = np.concatenate([np.empty(0, dtype=int)] + [sn.members for sn in supernodes])
    ids = np.repeat(
        np.array([sn.id for sn in supernodes], dtype=int),
        [sn.size for sn in supernodes],
    )
    out_of_range = (members < 0) | (members >= n_nodes)
    if out_of_range.any():
        raise GraphError(
            f"supernode member id {int(members[out_of_range][0])} out of range "
            f"for {n_nodes} nodes"
        )
    hits = np.bincount(members, minlength=n_nodes)
    if (hits > 1).any():
        node = int(np.flatnonzero(hits > 1)[0])
        owners = np.unique(ids[members == node])
        if owners.size == 1:
            raise GraphError(f"supernode {int(owners[0])} lists node {node} twice")
        raise GraphError("supernodes overlap")
    if members.size < n_nodes:
        raise GraphError(f"{n_nodes - members.size} nodes not covered by any supernode")
    out = np.empty(n_nodes, dtype=int)
    out[members] = ids
    return out
