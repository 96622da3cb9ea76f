"""The road supergraph container (Definition 8).

A :class:`Supergraph` bundles the supernode set, the weighted
superlink adjacency, and the mapping back to road-graph nodes. It
exposes the same matrix interface the partitioners consume, plus the
expansion of supernode partitions into road-segment partitions.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.supergraph.supernode import Supernode


class Supergraph:
    """Road supergraph G_s = (V_s, E_s, W_s).

    Parameters
    ----------
    member_of:
        Supernode id of every road-graph node; the ids must be dense
        0..n_s-1, every one with at least one member.
    features:
        Feature value ς.f of every supernode id, length n_s.
    adjacency:
        Symmetric weighted superlink matrix, shape (n_s, n_s).
    """

    def __init__(self, member_of: Sequence[int], features: Sequence[float], adjacency) -> None:
        self._member_of = np.array(member_of, dtype=np.intp)
        self._features = np.array(features, dtype=float)
        if self._member_of.ndim != 1 or self._features.ndim != 1:
            raise GraphError("member_of and features must be 1-D")
        n_super = self._features.size
        if self._member_of.size and (
            self._member_of.min() < 0 or self._member_of.max() >= n_super
        ):
            raise GraphError(
                f"supernode ids must be dense 0..{n_super - 1}; "
                f"found {int(self._member_of.min())}..{int(self._member_of.max())}"
            )
        self._sizes = np.bincount(self._member_of, minlength=n_super)
        empty = np.flatnonzero(self._sizes == 0)
        if empty.size:
            raise GraphError(
                f"supernode ids must be dense; supernode {int(empty[0])} has no members"
            )
        adj = sp.csr_matrix(adjacency)
        if adj.shape != (n_super, n_super):
            raise GraphError(
                f"adjacency shape {adj.shape} does not match {n_super} supernodes"
            )
        self._adj = adj

    # ------------------------------------------------------------------
    @property
    def n_supernodes(self) -> int:
        """Order of the supergraph |V_s|."""
        return self._features.size

    @property
    def n_superlinks(self) -> int:
        """Number of superlinks |E_s|."""
        return self._adj.nnz // 2

    @property
    def n_road_nodes(self) -> int:
        """Order of the underlying road graph."""
        return self._member_of.size

    @property
    def supernodes(self) -> Tuple[Supernode, ...]:
        """The supernode set, ordered by id, built from the arrays on each access."""
        order = np.argsort(self._member_of, kind="stable")
        bounds = np.cumsum(self._sizes).tolist()
        starts = [0] + bounds[:-1]
        return tuple(
            Supernode(sid, order[a:b], feature)
            for sid, (a, b, feature) in enumerate(zip(starts, bounds, self._features.tolist()))
        )

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Weighted superlink adjacency matrix (do not mutate)."""
        return self._adj

    @property
    def member_of(self) -> np.ndarray:
        """Vector mapping road-graph node id -> supernode id."""
        view = self._member_of.view()
        view.flags.writeable = False
        return view

    def features(self) -> np.ndarray:
        """Supernode feature values, ordered by id."""
        return self._features.copy()

    def sizes(self) -> np.ndarray:
        """Member counts |ς_i|, ordered by id."""
        return self._sizes.copy()

    def as_graph(self) -> Graph:
        """View as a :class:`repro.graph.Graph` with supernode features."""
        return Graph.from_adjacency(self._adj, features=self.features())

    # ------------------------------------------------------------------
    def reduction_ratio(self) -> float:
        """Order reduction n_s / n_r achieved by the condensation."""
        if self.n_road_nodes == 0:
            raise GraphError("empty road graph")
        return self.n_supernodes / self.n_road_nodes

    def expand_partition(self, supernode_labels: Sequence[int]) -> np.ndarray:
        """Expand a supernode partition to road-graph node labels.

        Parameters
        ----------
        supernode_labels:
            Partition index per supernode id.

        Returns
        -------
        numpy.ndarray: partition index per road-graph node.
        """
        labels = np.asarray(supernode_labels, dtype=int)
        if labels.shape != (self.n_supernodes,):
            raise GraphError(
                f"labels must have shape ({self.n_supernodes},), got {labels.shape}"
            )
        return labels[self._member_of]

    def __repr__(self) -> str:
        return (
            f"Supergraph(n_supernodes={self.n_supernodes}, "
            f"n_superlinks={self.n_superlinks}, n_road_nodes={self.n_road_nodes})"
        )
