"""Superlink establishment and weighting (paper Section 4.3.3).

A superlink joins supernodes (p, q) whenever at least one road-graph
link crosses between their member sets. Its weight (Equation 3) is::

    w = sqrt( (1/|L_pq|) * sum_{e in L_pq} g(e)^2 )

i.e. the root-mean-square of a Gaussian similarity over the individual
links. Two interpretations of g(e) are supported:

* ``mode="supernode"`` (paper-literal): g(e) = exp(-(f_p - f_q)^2 /
  (2 sigma^2)) using the *supernode* features. Every link between the
  same pair then contributes the same value, so the RMS reduces
  algebraically to the single Gaussian — we compute that closed form.
* ``mode="node"``: g(e) uses the feature values of the two road-graph
  *nodes* joined by each link, so links between similar segments pull
  the weight up — this realises the textual intent that "larger number
  of links and closer feature values together lead to higher weight"
  through genuinely link-dependent terms.

sigma^2 is the variance of supernode features around their global mean
(the paper's sigma^2(s)); when it degenerates to 0 all supernode
features coincide and every weight is 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.components import edge_list


def feature_variance(features: Sequence[float]) -> float:
    """Variance sigma^2 of supernode features around their global mean."""
    feats = np.asarray(features, dtype=float)
    if feats.size == 0:
        raise GraphError("no supernodes")
    return float(((feats - feats.mean()) ** 2).mean())


def superlink_weights(
    adjacency,
    member_of: np.ndarray,
    features: Sequence[float],
    node_features: Sequence[float] = None,
    mode: str = "supernode",
) -> sp.csr_matrix:
    """Weighted supernode adjacency matrix (the supergraph's A).

    Parameters
    ----------
    adjacency:
        Road-graph adjacency (symmetric sparse/dense) or its
        :class:`repro.graph.components.EdgeList`.
    member_of:
        Supernode id of every road-graph node (ids dense 0..n_s-1).
    features:
        Feature value of every supernode id.
    node_features:
        Per-node densities; required for ``mode="node"``.
    mode:
        ``"supernode"`` (paper-literal Eq. 3) or ``"node"`` (per-link
        node similarities); see module docstring.

    Returns
    -------
    scipy.sparse.csr_matrix of shape (n_supernodes, n_supernodes),
    symmetric, zero diagonal, entries in [0, 1].
    """
    if mode not in ("supernode", "node"):
        raise GraphError(f"mode must be 'supernode' or 'node', got {mode!r}")
    edges = edge_list(adjacency)
    member_of = np.asarray(member_of)
    if member_of.shape != (edges.n,):
        raise GraphError(f"member_of must have shape ({edges.n},), got {member_of.shape}")
    feats = np.asarray(features, dtype=float)
    n_super = feats.size
    sigma2 = feature_variance(feats)
    if mode == "node":
        if node_features is None:
            raise GraphError("mode='node' requires node_features")
        node_feats = np.asarray(node_features, dtype=float)
        if node_feats.shape != (edges.n,):
            raise GraphError(
                f"node_features must have shape ({edges.n},), got {node_feats.shape}"
            )

    # one key per supernode pair (each link once), from int32 ids; each
    # temporary is dropped as soon as the next one is built
    member = np.asarray(member_of, dtype=np.int32)
    p, q = member.take(edges.u), member.take(edges.v)
    del member
    cross = p != q
    if not cross.any():
        return sp.csr_matrix((n_super, n_super))
    p, q = np.compress(cross, p), np.compress(cross, q)
    if mode == "node":
        u, v = np.compress(cross, edges.u), np.compress(cross, edges.v)
        if sigma2 > 0:
            g = np.exp(-((node_feats[u] - node_feats[v]) ** 2) / (2.0 * sigma2))
        else:
            g = np.ones(u.size)
        del u, v
    del cross
    keys = np.minimum(p, q).astype(np.int64)
    keys *= n_super
    keys += np.maximum(p, q)
    del p, q
    if mode == "supernode":
        # a plain sort: np.unique without return arrays takes a hash
        # table, several times slower on these keys
        keys.sort()
        unique_keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    else:
        unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    del keys
    pair_lo = (unique_keys // n_super).astype(np.int32)
    pair_hi = (unique_keys % n_super).astype(np.int32)
    del unique_keys

    if mode == "supernode":
        if sigma2 > 0:
            weights = np.exp(
                -((feats[pair_lo] - feats[pair_hi]) ** 2) / (2.0 * sigma2)
            )
        else:
            weights = np.ones(pair_lo.size)
    else:
        # bincount adds each pair's links in edge order, whatever order
        # the sort left the pairs in
        sums = np.bincount(inverse, weights=g * g, minlength=pair_lo.size)
        weights = np.sqrt(sums / counts)
    return _symmetric_csr(pair_lo, pair_hi, weights, n_super)


def _symmetric_csr(
    pair_lo: np.ndarray, pair_hi: np.ndarray, weights: np.ndarray, n: int
) -> sp.csr_matrix:
    """The symmetric CSR matrix with ``weights`` at (lo, hi) and (hi, lo),
    its arrays filled directly.

    Entry j of the lower-triangle list (hi, lo) and then the upper one
    (lo, hi) is ordered by a stable sort on its row. The pairs come
    sorted by (lo, hi), so each row lists its lower columns ascending,
    then its upper ones: the canonical CSR order. The stable sort is a
    plain sort of the unique keys ``row << 32 | j``.
    """
    m = weights.size
    rows = np.concatenate([pair_hi, pair_lo])
    order = rows.astype(np.int64) << 32
    order |= np.arange(2 * m, dtype=np.int32)
    order.sort()
    order &= 0xFFFFFFFF
    indices = np.concatenate([pair_lo, pair_hi])[order]
    data = np.concatenate([weights, weights])[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))
