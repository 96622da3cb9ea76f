"""Supernode stability (Definition 9) and the stability check (Algorithm 2).

The stability of a supernode measures how tightly its members' own
feature values cluster around the member mean::

    eta(s) = (1/|s|) * sum_j exp(-|(v_j.f + 1)/(mu(s) + 1) - 1|)

yielding 1 when every member equals the mean and decaying toward 0 as
members drift away. Unstable supernodes (eta below the threshold
epsilon_eta) are split at their member mean into a "pre" half
(f <= mu) and a "post" half (f > mu), LIFO-recursively until every
supernode is stable.

The paper splits purely by feature value; a split half can therefore
be spatially disconnected, which would violate condition C.2 later.
``stability_check`` re-extracts connected components inside each half
by default (``reconnect=True``) so supernodes always stay connected;
pass ``reconnect=False`` for the paper-literal behaviour.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.components import connected_components
from repro.obs.metrics import incr
from repro.supergraph.supernode import Supernode, member_means


def stability(member_features: Sequence[float]) -> float:
    """Stability measure eta for a supernode with these member features.

    Parameters
    ----------
    member_features:
        The feature values ``v_j.f`` of the supernode's member nodes.

    Returns
    -------
    float in [0, 1]; 1 when all members equal the member mean.
    """
    feats = np.asarray(member_features, dtype=float)
    if feats.size == 0:
        raise GraphError("stability of an empty supernode is undefined")
    mu = feats.mean()
    return float(np.exp(-np.abs((feats + 1.0) / (mu + 1.0) - 1.0)).mean())


def supernode_stability(sn: Supernode, features: Sequence[float]) -> float:
    """Stability eta(s) of supernode ``sn`` given the node feature vector."""
    feats = np.asarray(features, dtype=float)
    return stability(feats[sn.members])


def _split_members(
    members: np.ndarray, feats: np.ndarray
) -> List[np.ndarray]:
    """Split member ids at the member mean into pre (<=) and post (>) halves."""
    values = feats[members]
    mu = values.mean()
    pre = members[values <= mu]
    post = members[values > mu]
    halves = [h for h in (pre, post) if h.size]
    if len(halves) == 1:
        # all values on one side of the mean (all equal): cannot split
        return [members]
    return halves


def _connected_pieces(members: np.ndarray, adjacency: sp.csr_matrix) -> List[np.ndarray]:
    """Connected components of the induced subgraph on ``members``."""
    sub = adjacency[members][:, members]
    comp = connected_components(sub)
    return [members[comp == cid] for cid in range(int(comp.max()) + 1)]


def _stable_pieces(
    members: np.ndarray,
    feature: float,
    feats: np.ndarray,
    epsilon_eta: float,
    adjacency,
    reconnect: bool,
) -> List[Tuple[np.ndarray, float]]:
    """Algorithm 2 on one supernode: its stable pieces, in the order the
    LIFO stack accepts them, each with its feature value."""
    accepted: List[Tuple[np.ndarray, float]] = []
    # stack holds (members, feature, was_split)
    stack: List = [(members, feature, False)]
    while stack:
        members, feature, was_split = stack.pop()
        incr("stability.checks")
        halves = [members]
        if members.size > 1 and stability(feats[members]) < epsilon_eta:
            halves = _split_members(members, feats)
        if len(halves) == 1:
            # stable, a single node, or unsplittable (all features equal)
            accepted.append((members, float(feats[members].mean()) if was_split else feature))
            continue
        incr("stability.splits")
        for half in halves:
            for piece in _connected_pieces(half, adjacency) if reconnect else [half]:
                stack.append((piece, 0.0, True))
    return accepted


def stability_check(
    member_of: np.ndarray,
    features: np.ndarray,
    node_features: Sequence[float],
    epsilon_eta: float,
    adjacency=None,
    reconnect: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split unstable supernodes until all are stable (Algorithm 2).

    Parameters
    ----------
    member_of:
        Supernode id of every road-graph node (ids dense 0..n_s-1).
    features:
        Feature value of every supernode id.
    node_features:
        Per-node feature vector of the road graph (densities).
    epsilon_eta:
        Stability threshold in [0, 1]. 0 keeps every supernode
        untouched; 1 forces splits down to constant-feature groups.
    adjacency:
        Road-graph adjacency; required when ``reconnect`` is True.
    reconnect:
        Re-extract connected components inside each split half so
        supernodes stay spatially connected (recommended; see module
        docstring).

    Returns
    -------
    (member_of, features) with dense ids. Supernodes that were split
    get their member mean as the new feature value, stable originals
    keep their existing feature. Ids follow Algorithm 2's LIFO stack:
    the last supernode is popped first, and an unstable one is split
    down to stable pieces before the next is popped.
    """
    if not 0.0 <= epsilon_eta <= 1.0:
        raise GraphError(f"epsilon_eta must be in [0, 1], got {epsilon_eta}")
    member_of = np.asarray(member_of)
    features = np.asarray(features, dtype=float)
    feats = np.asarray(node_features, dtype=float)
    if reconnect:
        if adjacency is None:
            raise GraphError("reconnect=True requires the road-graph adjacency")
        adjacency = sp.csr_matrix(adjacency)

    if epsilon_eta == 0.0:
        return member_of, features

    # eta of every supernode at once, bit-identical to stability()
    n_super = features.size
    mu = member_means(member_of, feats, n_super)
    eta = member_means(
        member_of, np.exp(-np.abs((feats + 1.0) / (mu[member_of] + 1.0) - 1.0)), n_super
    )
    sizes = np.bincount(member_of, minlength=n_super)
    unstable = np.flatnonzero((eta < epsilon_eta) & (sizes > 1))
    incr("stability.checks", n_super - unstable.size)
    order = np.argsort(member_of, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pieces = {
        int(s): _stable_pieces(
            order[starts[s] : starts[s] + sizes[s]],
            features[s],
            feats,
            epsilon_eta,
            adjacency,
            reconnect,
        )
        for s in unstable
    }

    counts = np.ones(n_super, dtype=np.int64)
    for s, accepted in pieces.items():
        counts[s] = len(accepted)
    # the first id of supernode s follows the pieces of every supernode above it
    first = np.cumsum(counts[::-1])[::-1] - counts
    out_member_of = first[member_of]
    out_features = np.empty(int(counts.sum()))
    out_features[first] = features
    for s, accepted in pieces.items():
        for j, (members, value) in enumerate(accepted):
            out_member_of[members] = first[s] + j
            out_features[first[s] + j] = value
    return out_member_of, out_features
