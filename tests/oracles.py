"""Loop-based reference implementations kept as test oracles.

These are the straightforward per-item versions of library functions
that the library now computes with whole-array passes. Tests assert
that the fast versions return exactly the same arrays. The module
needs only numpy, scipy and repro, so the hot-path benchmark can
import it without hypothesis; the random inputs the property tests
compare on come from :mod:`strategies`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.clustering.kmeans import KMeansResult, _validate_kappa, kmeans_1d
from repro.clustering.optimality import _cluster_stats, _prepare, moderated_clustering_gain
from repro.exceptions import ClusteringError, GraphError, NetworkError
from repro.graph.components import (
    EdgeList,
    constrained_components,
    count_constrained_components,
    edge_list,
)
from repro.network.geometry import Point
from repro.obs.convergence import (
    ConvergenceTrace,
    attach_convergence,
    convergence_wanted,
)
from repro.network.model import Intersection, RoadNetwork, RoadSegment
from repro.pipeline.schemes import run_scheme
from repro.supergraph.supernode import Supernode, create_supernodes
from repro.util.rng import ensure_rng


def segment_adjacency_reference(network: RoadNetwork) -> List[Tuple[int, int]]:
    """Pure-Python dual transform: per-junction clique loops.

    Quadratic in junction degree and interpreter-bound; the oracle for
    :func:`repro.network.dual.segment_adjacency`.
    """
    incident: List[Set[int]] = [set() for _ in range(network.n_intersections)]
    for seg in network.segments:
        incident[seg.source].add(seg.id)
        incident[seg.target].add(seg.id)

    pairs: Set[Tuple[int, int]] = set()
    for segs in incident:
        ordered = sorted(segs)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                pairs.add((u, v))
    return sorted(pairs)


def road_graph_adjacency_coo(network: RoadNetwork) -> sp.csr_matrix:
    """The road-graph adjacency through sorted COO pairs: the upper
    triangle of ``B.T @ B`` as ``(u, v)`` arrays, lexsorted, then
    mirrored into a CSR; the oracle for the CSR
    :func:`repro.network.dual.build_road_graph` reads off the product."""
    m = network.n_segments
    n = network.n_intersections
    src, tgt = network.segment_endpoint_ids()
    if m == 0:
        u = v = np.empty(0, dtype=np.int64)
    else:
        seg_ids = np.arange(m, dtype=np.int64)
        incidence = sp.csr_matrix(
            (
                np.ones(2 * m, dtype=np.float64),
                (np.concatenate([src, tgt]), np.concatenate([seg_ids, seg_ids])),
            ),
            shape=(n, m),
        )
        gram = (incidence.T @ incidence).tocoo()
        upper = gram.row < gram.col
        u = gram.row[upper].astype(np.int64)
        v = gram.col[upper].astype(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
    return sp.csr_matrix(
        (
            np.ones(2 * u.size, dtype=np.float64),
            (np.concatenate([u, v]), np.concatenate([v, u])),
        ),
        shape=(m, m),
    )


def kmeans_1d_reference(
    values: Sequence[float],
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansResult:
    """Reference 1-D k-means (full O(n) assignment per iteration).

    The original formulation: assignment runs ``searchsorted`` over
    every value and means come from ``bincount``. The oracle for
    :func:`repro.clustering.kmeans.kmeans_1d`.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    _validate_kappa(n, kappa)
    if not np.isfinite(data).all():
        raise ClusteringError("values must be finite")

    order = np.argsort(data, kind="stable")
    sorted_vals = data[order]

    positions = (np.arange(kappa) + 0.5) * n / kappa
    centers = sorted_vals[np.clip(positions.astype(int), 0, n - 1)].astype(float)

    labels = np.zeros(n, dtype=int)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        centers = np.sort(centers)
        bounds = (centers[:-1] + centers[1:]) / 2.0
        labels = np.searchsorted(bounds, data, side="left")

        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=kappa)
        sums = np.bincount(labels, weights=data, minlength=kappa)
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty]

        if not nonempty.all():
            residuals = np.abs(data - new_centers[labels])
            for q in np.flatnonzero(~nonempty):
                far = int(np.argmax(residuals))
                new_centers[q] = data[far]
                residuals[far] = -1.0

        shift = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        if shift <= tol:
            break

    centers = np.sort(centers)
    bounds = (centers[:-1] + centers[1:]) / 2.0
    labels = np.searchsorted(bounds, data, side="left")
    inertia = float(((data - centers[labels]) ** 2).sum())
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=n_iter)


def kmeans_1d_prefix_reference(
    values: Sequence[float],
    kappa: int,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> KMeansResult:
    """Per-kappa prefix-sum Lloyd loop, one fit per call.

    Each iteration searches the kappa-1 midpoint bounds into the sorted
    values and takes every cluster's count and sum from prefix sums.
    It records a ``kmeans_1d`` convergence trace exactly as the library
    does. The bit-for-bit oracle for
    :func:`repro.clustering.kmeans.kmeans_1d_batch`.
    """
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    _validate_kappa(n, kappa)
    if not np.isfinite(data).all():
        raise ClusteringError("values must be finite")
    sorted_vals = np.sort(data, kind="stable")

    positions = (np.arange(kappa) + 0.5) * n / kappa
    centers = sorted_vals[np.clip(positions.astype(int), 0, n - 1)].astype(float)

    prefix = np.concatenate(([0.0], np.cumsum(sorted_vals)))
    cluster_ids = np.arange(kappa)
    edges = np.empty(kappa + 1, dtype=np.int64)
    edges[0], edges[kappa] = 0, n

    conv = (
        ConvergenceTrace("kmeans_1d", meta={"n": n, "kappa": kappa, "tol": tol})
        if convergence_wanted()
        else None
    )

    n_iter = 0
    shift = float("inf")
    for n_iter in range(1, max_iter + 1):
        centers = np.sort(centers)
        bounds = (centers[:-1] + centers[1:]) / 2.0
        edges[1:kappa] = np.searchsorted(sorted_vals, bounds, side="right")
        counts = np.diff(edges)
        sums = prefix[edges[1:]] - prefix[edges[:-1]]

        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty]

        if not nonempty.all():
            labels_sorted = np.repeat(cluster_ids, counts)
            residuals = np.abs(sorted_vals - new_centers[labels_sorted])
            for q in np.flatnonzero(~nonempty):
                far = int(np.argmax(residuals))
                new_centers[q] = sorted_vals[far]
                residuals[far] = -1.0

        shift = float(np.abs(new_centers - centers).sum())
        centers = new_centers
        if conv is not None:
            conv.record(shift=shift)
        if shift <= tol:
            break

    centers = np.sort(centers)
    bounds = (centers[:-1] + centers[1:]) / 2.0
    labels = np.searchsorted(bounds, data, side="left")
    inertia = float(((data - centers[labels]) ** 2).sum())
    if conv is not None:
        conv.finish(converged=shift <= tol, inertia=inertia)
        attach_convergence(conv)
    return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=n_iter)


def pairwise_sq_dists_reference(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Full (n, kappa) squared-distance matrix via broadcasting.

    The original O(n * kappa * d)-memory formulation; the oracle for
    :func:`repro.clustering.kmeans.assign_to_centers`.
    """
    return ((data[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)


def moderated_clustering_gain_reference(data, labels) -> float:
    """Per-cluster-loop MCG.

    :func:`repro.clustering.optimality.moderated_clustering_gain`
    vectorises the same computation and must return bit-identical
    values; tests assert exactly that.
    """
    arr, lab, kappa = _prepare(data, labels)
    sizes, means, intra, mu0 = _cluster_stats(arr, lab, kappa)
    sep = ((means - mu0) ** 2).sum(axis=1)

    theta = 0.0
    for q in range(kappa):
        if sizes[q] <= 0 or sep[q] <= 0:
            continue
        theta1 = (sizes[q] - 1.0) * sep[q]
        ratio = intra[q] / (sizes[q] * sep[q])
        theta2 = 1.0 - np.log2(1.0 + ratio)
        theta2 = min(max(theta2, 0.0), 1.0)
        theta += theta1 * theta2
    return float(theta)


def connected_components_bfs(adjacency, labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """The paper's FIFO BFS: ids in discovery order from node 0 upward.

    With ``labels``, an edge only connects nodes sharing a label.
    """
    adj = sp.csr_matrix(adjacency)
    n = adj.shape[0]
    comp = np.full(n, -1, dtype=int)
    indptr, indices = adj.indptr, adj.indices
    current = 0
    queue: deque = deque()
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = current
        queue.append(start)
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if comp[v] != -1:
                    continue
                if labels is not None and labels[v] != labels[u]:
                    continue
                comp[v] = current
                queue.append(v)
        current += 1
    return comp


def create_supernodes_loop(
    adjacency,
    labels: Sequence[int],
    cluster_means: Optional[Sequence[float]] = None,
    features: Optional[Sequence[float]] = None,
) -> List[Supernode]:
    """One :class:`Supernode` per component, its feature read per object."""
    labels = np.asarray(labels, dtype=int)
    comp = constrained_components(adjacency, labels)
    feats = None if features is None else np.asarray(features, dtype=float)
    means = None if cluster_means is None else np.asarray(cluster_means, dtype=float)

    # a stable sort lists each component's members in ascending order
    order = np.argsort(comp, kind="stable")
    bounds = np.cumsum(np.bincount(comp)).tolist()
    supernodes: List[Supernode] = []
    for cid, (start, end) in enumerate(zip([0] + bounds[:-1], bounds)):
        members = order[start:end]
        if means is not None:
            cluster = int(labels[members[0]])
            if cluster >= means.size:
                raise GraphError(
                    f"cluster index {cluster} out of range for "
                    f"{means.size} cluster means"
                )
            feature = float(means[cluster])
        else:
            feature = float(feats[members].mean())
        supernodes.append(Supernode(cid, members, feature))
    return supernodes


def membership_vector(supernodes: Sequence[Supernode], n_nodes: int) -> np.ndarray:
    """Map node id -> supernode id; raises if the cover is not a partition.

    The checked object-to-array conversion: tests use it to assert that
    a supergraph's supernodes partition the road graph.
    """
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


def superlink_weights_objects(
    adjacency,
    supernodes: Sequence[Supernode],
    node_features: Optional[Sequence[float]] = None,
    mode: str = "supernode",
) -> sp.csr_matrix:
    """Eq. 3 superlinks from a list of :class:`Supernode` objects: the
    oracle for :func:`repro.supergraph.superlink.superlink_weights`."""
    adj = sp.csr_matrix(adjacency)
    n_nodes = adj.shape[0]
    member_of = membership_vector(supernodes, n_nodes)
    n_super = len(supernodes)
    feats = np.array([sn.feature for sn in supernodes], dtype=float)
    sigma2 = float(((feats - feats.mean()) ** 2).mean())

    coo = adj.tocoo()
    upper = coo.row < coo.col
    u, v = coo.row[upper], coo.col[upper]
    p, q = member_of[u], member_of[v]
    cross = p != q
    u, v, p, q = u[cross], v[cross], p[cross], q[cross]
    if p.size == 0:
        return sp.csr_matrix((n_super, n_super))

    lo = np.minimum(p, q).astype(np.int64)
    hi = np.maximum(p, q).astype(np.int64)
    keys = lo * n_super + hi
    unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    pair_lo = (unique_keys // n_super).astype(int)
    pair_hi = (unique_keys % n_super).astype(int)

    if mode == "supernode":
        if sigma2 > 0:
            weights = np.exp(-((feats[pair_lo] - feats[pair_hi]) ** 2) / (2.0 * sigma2))
        else:
            weights = np.ones(unique_keys.size)
    else:
        node_feats = np.asarray(node_features, dtype=float)
        if sigma2 > 0:
            g = np.exp(-((node_feats[u] - node_feats[v]) ** 2) / (2.0 * sigma2))
        else:
            g = np.ones(u.size)
        sums = np.zeros(unique_keys.size)
        np.add.at(sums, inverse, g * g)
        weights = np.sqrt(sums / counts)

    rows = np.concatenate([pair_lo, pair_hi])
    cols = np.concatenate([pair_hi, pair_lo])
    vals = np.concatenate([weights, weights])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_super, n_super))


def superlink_weights_coo(
    edges: EdgeList,
    member_of: np.ndarray,
    features: Sequence[float],
    node_features: Optional[Sequence[float]] = None,
    mode: str = "supernode",
) -> sp.csr_matrix:
    """Eq. 3 superlinks assembled through COO: int64 pair ids mirrored
    into ``csr_matrix((vals, (rows, cols)))``. The oracle for the CSR
    arrays :func:`repro.supergraph.superlink.superlink_weights` fills
    directly."""
    feats = np.asarray(features, dtype=float)
    n_super = feats.size
    sigma2 = float(((feats - feats.mean()) ** 2).mean())
    p, q = np.take(member_of, edges.u), np.take(member_of, edges.v)
    cross = p != q
    if not cross.any():
        return sp.csr_matrix((n_super, n_super))
    p, q = np.compress(cross, p), np.compress(cross, q)
    keys = np.minimum(p, q).astype(np.int64) * n_super + np.maximum(p, q)
    unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    pair_lo = unique_keys // n_super
    pair_hi = unique_keys % n_super
    if mode == "supernode":
        if sigma2 > 0:
            weights = np.exp(-((feats[pair_lo] - feats[pair_hi]) ** 2) / (2.0 * sigma2))
        else:
            weights = np.ones(unique_keys.size)
    else:
        node_feats = np.asarray(node_features, dtype=float)
        u, v = np.compress(cross, edges.u), np.compress(cross, edges.v)
        if sigma2 > 0:
            g = np.exp(-((node_feats[u] - node_feats[v]) ** 2) / (2.0 * sigma2))
        else:
            g = np.ones(u.size)
        sums = np.bincount(inverse, weights=g * g, minlength=unique_keys.size)
        weights = np.sqrt(sums / counts)
    # the lower triangle first puts every row's columns in ascending order
    rows = np.concatenate([pair_hi, pair_lo])
    cols = np.concatenate([pair_lo, pair_hi])
    vals = np.concatenate([weights, weights])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_super, n_super))


def build_supergraph_per_kappa(adjacency, densities, epsilon_fraction: float = 0.995):
    """Algorithm 1 (no stability check) with one full result per kappa:
    a :func:`kmeans_1d` fit, its labels and its MCG for every scanned
    kappa, all held at once, then a component count per shortlisted fit
    and COO superlinks. The oracle for the streamed
    :class:`repro.supergraph.builder.SupergraphBuilder`.

    Returns a dict of ``kappas``, ``mcg``, ``fits`` (kappa -> result),
    ``shortlisted``, ``counts``, ``chosen_kappa``, ``member_of``,
    ``features`` and ``adjacency``.
    """
    values = np.asarray(densities, dtype=float)
    kappas = list(range(2, min(30, values.size - 1) + 1))
    fits = {kappa: kmeans_1d(values, kappa) for kappa in kappas}
    mcg = [moderated_clustering_gain(values, fits[kappa].labels) for kappa in kappas]
    shortlisted = [k for k, m in zip(kappas, mcg) if m >= epsilon_fraction * max(mcg)]
    shortlisted = shortlisted or [kappas[int(np.argmax(mcg))]]
    edges = edge_list(adjacency)
    counts = [count_constrained_components(edges, fits[kappa].labels) for kappa in shortlisted]
    chosen = shortlisted[int(np.argmin(counts))]
    fit = fits[chosen]
    member_of, features = create_supernodes(edges, fit.labels, cluster_means=fit.centers)
    return {
        "kappas": kappas,
        "mcg": mcg,
        "fits": fits,
        "shortlisted": shortlisted,
        "counts": counts,
        "chosen_kappa": chosen,
        "member_of": member_of,
        "features": features,
        "adjacency": superlink_weights_coo(edges, member_of, features),
    }


def stability_check_objects(
    supernodes: Sequence[Supernode],
    features: Sequence[float],
    epsilon_eta: float,
    adjacency=None,
    reconnect: bool = True,
) -> List[Supernode]:
    """Algorithm 2 as one LIFO stack of :class:`Supernode` objects: the
    oracle for :func:`repro.supergraph.stability.stability_check`."""
    feats = np.asarray(features, dtype=float)
    if reconnect:
        adjacency = sp.csr_matrix(adjacency)
    if epsilon_eta == 0.0:
        return list(supernodes)

    accepted: List[Supernode] = []
    # stack holds (members, feature, was_split)
    stack: List = [(sn.members, sn.feature, False) for sn in supernodes]
    while stack:
        members, feature, was_split = stack.pop()
        values = feats[members]
        mu = values.mean()
        eta = float(np.exp(-np.abs((values + 1.0) / (mu + 1.0) - 1.0)).mean())
        pre, post = members[values <= mu], members[values > mu]
        if eta >= epsilon_eta or members.size == 1 or not (pre.size and post.size):
            value = float(values.mean()) if was_split else feature
            accepted.append(Supernode(len(accepted), members, value))
            continue
        for half in (pre, post):
            if reconnect:
                comp = connected_components_bfs(adjacency[half][:, half])
                for cid in range(int(comp.max()) + 1):
                    stack.append((half[comp == cid], 0.0, True))
            else:
                stack.append((half, 0.0, True))
    return accepted


def membership_vector_loop(supernodes: Sequence[Supernode], n_nodes: int) -> np.ndarray:
    """One scatter per supernode, checking overlap as it goes."""
    out = np.full(n_nodes, -1, dtype=int)
    for sn in supernodes:
        if (out[sn.members] != -1).any():
            raise GraphError("supernodes overlap")
        out[sn.members] = sn.id
    if (out == -1).any():
        missing = int((out == -1).sum())
        raise GraphError(f"{missing} nodes not covered by any supernode")
    return out


def cluster_means_loop(
    arr: np.ndarray, labels: np.ndarray, centers: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Lloyd's update one cluster at a time: a boolean mask and a
    ``mean(axis=0)`` per non-empty cluster; the oracle for
    :func:`repro.clustering.kmeans._cluster_means`."""
    new_centers = centers.copy()
    for q in range(len(centers)):
        if counts[q] > 0:
            new_centers[q] = arr[labels == q].mean(axis=0)
    return new_centers


def adjacent_partition_pairs_loop(adjacency, labels) -> List[Tuple[int, int]]:
    """Touching partition pairs, one cut adjacency entry at a time; the
    oracle for :func:`repro.metrics.distances.adjacent_partition_pairs`."""
    adj = sp.csr_matrix(adjacency)
    lab = np.asarray(labels, dtype=int)
    coo = adj.tocoo()
    pairs: Set[Tuple[int, int]] = set()
    cross = lab[coo.row] != lab[coo.col]
    for a, b in zip(lab[coo.row[cross]], lab[coo.col[cross]]):
        pairs.add((int(min(a, b)), int(max(a, b))))
    return sorted(pairs)


def partition_connectivity_matrix_loop(adjacency, labels) -> np.ndarray:
    """RMS cross-partition superlink weight, one superlink at a time."""
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)
    k = int(lab.max()) + 1 if lab.size else 0

    sum_sq = np.zeros((k, k))
    count = np.zeros((k, k))
    coo = adj.tocoo()
    for u, v, w in zip(coo.row, coo.col, coo.data):
        if u >= v:
            continue
        i, j = int(lab[u]), int(lab[v])
        if i == j:
            continue
        sum_sq[i, j] += w * w
        sum_sq[j, i] += w * w
        count[i, j] += 1
        count[j, i] += 1

    out = np.zeros((k, k))
    mask = count > 0
    out[mask] = np.sqrt(sum_sq[mask] / count[mask])
    return out


def incremental_update_loop(
    graph,
    labels: np.ndarray,
    previous_densities: np.ndarray,
    densities: np.ndarray,
    k: int,
    scheme: str,
    threshold: float,
    seed,
) -> Tuple[np.ndarray, List[int], List[int], int]:
    """One :meth:`IncrementalRepartitioner.update`, region by region.

    Tests each region's staleness in a scalar loop, finds its members
    with one ``labels == region`` scan, slices and re-features its
    subgraph whether or not it will split, renumbers kept regions one
    mask at a time and densifies with ``np.unique``. ``labels`` must be
    the labels ``previous_densities`` were last scored on. Returns
    ``(labels, refreshed, kept, n_relabelled)``.
    """
    n_regions = int(labels.max()) + 1

    def means(values):
        sizes = np.bincount(labels, minlength=n_regions)
        sums = np.bincount(labels, weights=values, minlength=n_regions)
        return sums / np.maximum(sizes, 1)

    old_means, new_means = means(previous_densities), means(densities)
    stale: List[int] = []
    for region in range(n_regions):
        old = old_means[region]
        denom = max(abs(old), 1e-9)
        if abs(new_means[region] - old) / denom > threshold:
            stale.append(region)
    kept = [r for r in range(n_regions) if r not in stale]
    if not stale:
        return labels.copy(), stale, kept, 0

    new_labels = labels.copy()
    next_id = len(kept)
    n_relabelled = 0
    for region in stale:
        members = np.flatnonzero(labels == region)
        share = members.size / labels.size
        local_k = min(max(1, round(k * share)), members.size)
        sub, __ = graph.subgraph(members)
        sub = sub.with_features(densities[members])
        if local_k == 1 or sub.n_nodes < 3:
            local = np.zeros(members.size, dtype=int)
        else:
            local = run_scheme(scheme, sub, local_k, seed=seed).labels
        if int(local.max()) > 0:
            n_relabelled += int(members.size)
        new_labels[members] = next_id + local
        next_id += int(local.max()) + 1
    for mapped, region in enumerate(kept):
        new_labels[labels == region] = mapped
    __, dense = np.unique(new_labels, return_inverse=True)
    return dense.astype(int), stale, kept, n_relabelled


def _build_network_loop(
    locations: List[Point],
    streets: List[Tuple[int, int]],
    two_way_mask: List[bool],
    speed_limits: Optional[List[float]] = None,
) -> RoadNetwork:
    """One :class:`RoadSegment` (or two, for a two-way street) per street."""
    intersections = [Intersection(i, loc) for i, loc in enumerate(locations)]
    segments: List[RoadSegment] = []
    sid = 0
    for k, (u, v) in enumerate(streets):
        length = locations[u].distance_to(locations[v])
        if length <= 0:
            raise NetworkError(f"street ({u}, {v}) has zero length")
        speed = speed_limits[k] if speed_limits is not None else 13.9
        segments.append(RoadSegment(sid, u, v, length=length, speed_limit=speed))
        sid += 1
        if two_way_mask[k]:
            segments.append(RoadSegment(sid, v, u, length=length, speed_limit=speed))
            sid += 1
    return RoadNetwork(intersections, segments)


def remove_streets_loop(
    n: int, streets: List[Tuple[int, int]], fraction: float, rng: np.random.Generator
) -> List[int]:
    """Kept street indices: a union-find spanning tree over a shuffled
    street order is protected, then non-tree streets go in shuffle order."""
    if not 0.0 <= fraction < 1.0:
        raise NetworkError(f"removal fraction must be in [0, 1), got {fraction}")
    m = len(streets)
    target_removals = int(round(fraction * m))
    if target_removals == 0 or m == 0:
        return list(range(m))

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = rng.permutation(m)
    in_tree = np.zeros(m, dtype=bool)
    for idx in order:
        u, v = streets[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[idx] = True

    candidates = [int(i) for i in order if not in_tree[i]]
    to_remove = set(candidates[:target_removals])
    return [i for i in range(m) if i not in to_remove]


def grid_network_loop(
    n_rows: int, n_cols: int, spacing: float = 100.0, two_way: bool = True
) -> RoadNetwork:
    """:func:`repro.network.generators.grid_network`, street by street."""
    locations = [
        Point(c * spacing, r * spacing) for r in range(n_rows) for c in range(n_cols)
    ]
    streets: List[Tuple[int, int]] = []
    for r in range(n_rows):
        for c in range(n_cols):
            if c + 1 < n_cols:
                a, b = r * n_cols + c, r * n_cols + c + 1
                streets.append((a, b) if (two_way or r % 2 == 0) else (b, a))
            if r + 1 < n_rows:
                a, b = r * n_cols + c, (r + 1) * n_cols + c
                streets.append((a, b) if (two_way or c % 2 == 0) else (b, a))
    return _build_network_loop(locations, streets, [two_way] * len(streets))


def urban_network_loop(
    n_rows: int,
    n_cols: int,
    spacing: float = 120.0,
    cbd_fraction: float = 0.3,
    two_way_fraction: float = 0.6,
    removal_fraction: float = 0.08,
    jitter: float = 0.15,
    seed=None,
) -> RoadNetwork:
    """:func:`repro.network.generators.urban_network` with per-point,
    per-street Python loops and one ``rng.random()`` per suburban
    street; the argument checks are left to the library version."""
    rng = ensure_rng(seed)
    offsets = rng.uniform(-jitter * spacing, jitter * spacing, size=(n_rows, n_cols, 2))
    locations: List[Point] = []
    for r in range(n_rows):
        for c in range(n_cols):
            dx, dy = offsets[r, c]
            locations.append(Point(c * spacing + dx, r * spacing + dy))

    streets: List[Tuple[int, int]] = []
    for r in range(n_rows):
        for c in range(n_cols):
            if c + 1 < n_cols:
                streets.append((r * n_cols + c, r * n_cols + c + 1))
            if r + 1 < n_rows:
                streets.append((r * n_cols + c, (r + 1) * n_cols + c))

    kept = remove_streets_loop(n_rows * n_cols, streets, removal_fraction, rng)
    streets = [streets[i] for i in kept]

    r_lo = (1.0 - cbd_fraction) / 2.0 * (n_rows - 1)
    r_hi = (1.0 + cbd_fraction) / 2.0 * (n_rows - 1)
    c_lo = (1.0 - cbd_fraction) / 2.0 * (n_cols - 1)
    c_hi = (1.0 + cbd_fraction) / 2.0 * (n_cols - 1)

    def in_cbd(idx: int) -> bool:
        r, c = divmod(idx, n_cols)
        return r_lo <= r <= r_hi and c_lo <= c <= c_hi

    two_way_mask: List[bool] = []
    speed_limits: List[float] = []
    for u, v in streets:
        if in_cbd(u) and in_cbd(v):
            two_way_mask.append(True)
            speed_limits.append(11.1)
        else:
            two_way_mask.append(bool(rng.random() < two_way_fraction))
            speed_limits.append(16.7)
    return _build_network_loop(locations, streets, two_way_mask, speed_limits)


def segment_midpoints_loop(network: RoadNetwork) -> np.ndarray:
    """``segment_midpoint`` once per segment, stacked into ``(m, 2)``."""
    mids = [network.segment_midpoint(sid) for sid in range(network.n_segments)]
    return np.array([(p.x, p.y) for p in mids], dtype=float).reshape(-1, 2)


def hotspot_profile_loop(
    network: RoadNetwork,
    n_hotspots: int = 4,
    peak_density: float = 0.12,
    background: float = 0.005,
    decay: float = 0.25,
    noise: float = 0.15,
    hotspots=None,
    seed=None,
) -> np.ndarray:
    """:func:`repro.traffic.profiles.hotspot_profile` on midpoints taken
    one segment at a time; the argument checks are left to the library."""
    rng = ensure_rng(seed)
    mids = segment_midpoints_loop(network)
    min_xy = mids.min(axis=0)
    max_xy = mids.max(axis=0)
    diagonal = float(np.hypot(*(max_xy - min_xy)))
    if diagonal == 0:
        diagonal = 1.0
    radius = decay * diagonal

    if hotspots is None:
        centres = [mids.mean(axis=0)]
        for __ in range(n_hotspots - 1):
            centres.append(min_xy + rng.random(2) * (max_xy - min_xy))
        centres = np.asarray(centres)
    else:
        centres = np.asarray(hotspots, dtype=float)

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


def repair_connectivity_loop(adjacency, labels, k: int) -> np.ndarray:
    """:func:`repro.core.refine.repair_connectivity` with the component
    weights summed in a dict, re-read from a fresh COO per merge, and a
    linear scan of that dict per candidate component."""
    adj = sp.csr_matrix(adjacency, dtype=float)
    lab = np.asarray(labels, dtype=int)

    def dense(values):
        __, out = np.unique(values, return_inverse=True)
        return out.astype(int)

    comp = connected_components_bfs(adj, lab)
    n_comp = int(comp.max()) + 1
    while n_comp > k:
        sizes = np.bincount(comp, minlength=n_comp)
        coo = adj.tocoo()
        cross = comp[coo.row] != comp[coo.col]
        weight = {}
        for a, b, w in zip(comp[coo.row[cross]], comp[coo.col[cross]], coo.data[cross]):
            key = (int(min(a, b)), int(max(a, b)))
            weight[key] = weight.get(key, 0.0) + w
        order = np.argsort(sizes)
        merged = False
        for smallest in order:
            neighbours = [
                (w, a if b == smallest else b)
                for (a, b), w in weight.items()
                if smallest in (a, b)
            ]
            if neighbours:
                __, target = max(neighbours)
                comp = dense(np.where(comp == smallest, target, comp))
                merged = True
                break
        if not merged:
            a, b = int(order[0]), int(order[1])
            comp = dense(np.where(comp == a, b, comp))
        n_comp = int(comp.max()) + 1
    return comp


def simulate_objects(
    network: RoadNetwork, trips, n_steps: int, dt: float = 120.0, signals=None
):
    """``MicroSimulator.run`` over given trips (no gate), reading every
    segment attribute from the ``RoadSegment`` objects:
    ``(densities, counts, flows, completed_trips)``."""
    segments = network.segments
    m = len(segments)
    capacities = np.maximum(1, [int(seg.capacity) for seg in segments])
    travel_steps = np.maximum(
        1, [int(np.ceil(seg.length / seg.speed_limit / dt)) for seg in segments]
    )
    queues = [deque() for __ in range(m)]  # [trip, position, entered_at]
    occupancy = np.zeros(m, dtype=int)
    pending = {}
    for trip in trips:
        if trip.segments:
            pending.setdefault(trip.depart_time, []).append(trip)
    counts = np.zeros((n_steps, m), dtype=int)
    flows = np.zeros((n_steps, m), dtype=int)
    completed = 0
    for step in range(n_steps):
        for trip in pending.pop(step, []):
            first = trip.segments[0]
            if occupancy[first] < capacities[first]:
                queues[first].append([trip, 0, step])
                occupancy[first] += 1
            else:
                pending.setdefault(step + 1, []).append(trip)
        for sid in range(m):
            queue = queues[sid]
            moved = 0
            while queue:
                vehicle = queue[0]
                if step - vehicle[2] < travel_steps[sid]:
                    break
                signal = (signals or {}).get(segments[sid].target)
                if signal is not None and not signal.allows(sid, step):
                    break
                nxt_pos = vehicle[1] + 1
                if nxt_pos >= len(vehicle[0].segments):
                    queue.popleft()
                    occupancy[sid] -= 1
                    flows[step, sid] += 1
                    completed += 1
                    continue
                nxt = vehicle[0].segments[nxt_pos]
                if occupancy[nxt] >= capacities[nxt]:
                    break
                queue.popleft()
                occupancy[sid] -= 1
                flows[step, sid] += 1
                vehicle[1], vehicle[2] = nxt_pos, step
                queues[nxt].append(vehicle)
                occupancy[nxt] += 1
                moved += 1
                if moved > len(queue) + 1:
                    break
        counts[step] = occupancy
    lengths = np.array([seg.length for seg in segments])
    return counts / lengths[np.newaxis, :], counts, flows, completed

# ----------------------------------------------------------------------
# a cheap labeller for serving tests and benches: balanced spatial
# cells instead of a full partitioning run
def spatial_shards(points, n_cells: int) -> np.ndarray:
    """Balanced recursive kd-split: cell label per point.

    Each recursion splits the current cell along its widest axis at
    the point median (stable argsort, so ties break by index and the
    result is deterministic), sending ``floor(k/2)`` of the ``k``
    cells to the lower half. Cell sizes differ by at most one.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates (``d`` >= 1).
    n_cells:
        Number of cells; must satisfy ``1 <= n_cells <= n``.

    Returns
    -------
    ``(n,)`` int array of cell labels in ``0..n_cells-1``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2:
        raise GraphError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= n_cells <= max(n, 1):
        raise GraphError(
            f"need 1 <= n_cells <= n_points, got n_cells={n_cells}, n={n}"
        )
    labels = np.zeros(n, dtype=np.int64)
    if n_cells == 1:
        return labels

    # iterative worklist instead of recursion: (indices, first, last)
    stack = [(np.arange(n), 0, n_cells)]
    while stack:
        idx, lo, hi = stack.pop()
        count = hi - lo
        if count == 1:
            labels[idx] = lo
            continue
        left = count // 2
        spans = pts[idx].max(axis=0) - pts[idx].min(axis=0)
        axis = int(np.argmax(spans))
        order = np.argsort(pts[idx, axis], kind="stable")
        # proportional cut keeps sizes balanced for any cell count;
        # idx.size >= count guarantees both halves stay non-empty
        cut = (idx.size * left) // count
        stack.append((idx[order[:cut]], lo, lo + left))
        stack.append((idx[order[cut:]], lo + left, hi))
    return labels


def slo_window_counts(events, objective, now: float) -> List[Tuple[int, int]]:
    """``(good, bad)`` per window of ``objective`` at time ``now``, by a
    scan over every recorded event.

    ``events`` are ``(t, latency_s, n_good, n_bad)`` tuples recorded at
    clock time ``t``. A window of ``w`` seconds holds the events of the
    current whole second and the ``ceil(w)`` seconds before it; a
    latency objective counts every request of a slower-than-threshold
    event as bad. The oracle for :meth:`repro.obs.slo.SLOTracker.evaluate`.
    """
    sec = int(now)
    counts = []
    for window_s in objective.windows_s:
        lo = sec - math.ceil(window_s)
        good = bad = 0
        for t, latency_s, n_good, n_bad in events:
            if t > now or not lo <= int(t) <= sec:
                continue
            if objective.kind == "latency" and latency_s > objective.threshold_s:
                bad += n_good + n_bad
            else:
                good += n_good
                bad += n_bad
        counts.append((good, bad))
    return counts
