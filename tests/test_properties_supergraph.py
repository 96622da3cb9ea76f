"""Property tests: module 2 on arrays against the object-based oracles.

Module 2 carries one ``member_of`` vector (road node -> supernode id)
and one feature array from the kappa shortlist to the
:class:`~repro.supergraph.Supergraph`. ``tests/oracles.py`` keeps the
per-supernode object code it replaced. Every property compares bytes:
the membership, the feature values, the shortlist's component counts,
the superlink CSR arrays in both superlink modes and Algorithm 2's
LIFO id order, on random graphs that include isolated nodes.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_supergraph_per_kappa,
    connected_components_bfs,
    create_supernodes_loop,
    membership_vector_loop,
    stability_check_objects,
    superlink_weights_coo,
    superlink_weights_objects,
)
from strategies import graphs_with_labels, road_graphs_with_densities

from repro.clustering.kmeans import kmeans_1d
from repro.graph.adjacency import Graph
from repro.graph.components import count_constrained_components, edge_list
from repro.supergraph.builder import SupergraphBuilder
from repro.supergraph.stability import stability_check
from repro.supergraph.superlink import superlink_weights
from repro.supergraph.supernode import Supernode, create_supernodes

MODES = st.sampled_from(["supernode", "node"])


def _csr_bytes(matrix):
    m = sp.csr_matrix(matrix)
    return m.shape, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()


def _csr_arrays(matrix):
    """Shape plus every CSR array's dtype and bytes."""
    return (matrix.shape,) + tuple(
        (a.dtype.str, a.tobytes()) for a in (matrix.data, matrix.indices, matrix.indptr)
    )


def _assert_same_supernodes(member_of, features, objects):
    np.testing.assert_array_equal(member_of, membership_vector_loop(objects, member_of.size))
    assert features.tobytes() == np.array([sn.feature for sn in objects], dtype=float).tobytes()


def _clustered(adj, densities, kappa):
    """Supernodes of a kappa fit: the array pair and the oracle objects."""
    fit = kmeans_1d(densities, kappa)
    arrays = create_supernodes(edge_list(adj), fit.labels, cluster_means=fit.centers)
    objects = create_supernodes_loop(adj, fit.labels, cluster_means=fit.centers)
    return arrays, objects


@given(
    graph=st.sampled_from([1, 2, 4]).flatmap(lambda k: graphs_with_labels(max_labels=k)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_counts_and_supernodes_on_the_edge_list(graph, seed):
    """Few labels make supernodes of eight members and more, whose means
    numpy sums pairwise rather than in sequence."""
    adj, labels = graph
    edges = edge_list(adj)
    assert count_constrained_components(edges, labels) == int(
        connected_components_bfs(adj, labels).max()
    ) + 1
    rng = np.random.default_rng(seed)
    means = rng.random(labels.max() + 1)
    member_of, features = create_supernodes(edges, labels, cluster_means=means)
    _assert_same_supernodes(
        member_of, features, create_supernodes_loop(adj, labels, cluster_means=means)
    )
    node_features = rng.random(labels.size)
    member_of, features = create_supernodes(edges, labels, features=node_features)
    _assert_same_supernodes(
        member_of, features, create_supernodes_loop(adj, labels, features=node_features)
    )


@given(inputs=road_graphs_with_densities(), kappa=st.integers(1, 6), mode=MODES)
@settings(max_examples=150, deadline=None)
def test_superlinks_match_objects(inputs, kappa, mode):
    adj, densities = inputs
    kappa = min(kappa, densities.size)
    (member_of, features), objects = _clustered(adj, densities, kappa)
    fast = superlink_weights(edge_list(adj), member_of, features, densities, mode=mode)
    slow = superlink_weights_objects(adj, objects, densities, mode=mode)
    assert _csr_bytes(fast) == _csr_bytes(slow)


@given(
    inputs=road_graphs_with_densities(),
    n_supernodes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    mode=MODES,
)
@settings(max_examples=150, deadline=None)
def test_superlinks_of_any_membership_match_objects(inputs, n_supernodes, seed, mode):
    """Few supernodes over random nodes join each pair by many links, so
    node-mode sums have several terms to add in edge order."""
    adj, densities = inputs
    rng = np.random.default_rng(seed)
    n_supernodes = min(n_supernodes, densities.size)
    member_of = np.concatenate(
        [np.arange(n_supernodes), rng.integers(0, n_supernodes, densities.size - n_supernodes)]
    )
    rng.shuffle(member_of)
    features, densities = rng.random(n_supernodes), rng.random(densities.size)
    objects = [
        Supernode(i, np.flatnonzero(member_of == i), features[i]) for i in range(n_supernodes)
    ]
    fast = superlink_weights(edge_list(adj), member_of, features, densities, mode=mode)
    slow = superlink_weights_objects(adj, objects, densities, mode=mode)
    assert _csr_bytes(fast) == _csr_bytes(slow)


@given(
    inputs=road_graphs_with_densities(),
    kappa=st.integers(1, 4),
    epsilon_eta=st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
    reconnect=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_stability_check_matches_objects(inputs, kappa, epsilon_eta, reconnect):
    adj, densities = inputs
    kappa = min(kappa, densities.size)
    (member_of, features), objects = _clustered(adj, densities, kappa)
    out = stability_check(member_of, features, densities, epsilon_eta, adj, reconnect)
    expected = stability_check_objects(objects, densities, epsilon_eta, adj, reconnect)
    # ids in the order the oracle's LIFO stack accepted them
    assert [sn.id for sn in expected] == list(range(len(expected)))
    _assert_same_supernodes(*out, expected)


@given(
    inputs=road_graphs_with_densities(),
    epsilon_eta=st.sampled_from([0.0, 0.5, 0.95]),
    mode=MODES,
    kappa_max=st.sampled_from([None, 2]),
)
@settings(max_examples=100, deadline=None)
def test_build_matches_the_object_pipeline(inputs, epsilon_eta, mode, kappa_max):
    """The whole build against Algorithm 1 run on objects: a refit and a
    BFS count per shortlisted kappa (``kappa_max=2`` shortlists one),
    the loop supernodes of the first minimum, the object stability
    check and superlinks."""
    adj, densities = inputs
    if densities.size < 3:
        return
    builder = SupergraphBuilder(
        epsilon_eta=epsilon_eta, superlink_mode=mode, kappa_max=kappa_max, seed=0
    )
    supergraph = builder.build(Graph.from_adjacency(adj, features=densities))
    report = builder.report
    if kappa_max == 2:
        assert report.shortlisted == [2]

    fits = [kmeans_1d(densities, kappa) for kappa in report.shortlisted]
    counts = [int(connected_components_bfs(adj, fit.labels).max()) + 1 for fit in fits]
    assert report.component_counts == counts
    best = fits[int(np.argmin(counts))]
    objects = create_supernodes_loop(adj, best.labels, cluster_means=best.centers)
    if epsilon_eta > 0:
        objects = stability_check_objects(objects, densities, epsilon_eta, adj)
    _assert_same_supernodes(supergraph.member_of, supergraph.features(), objects)
    assert _csr_bytes(supergraph.adjacency) == _csr_bytes(
        superlink_weights_objects(adj, objects, densities, mode=mode)
    )


@given(inputs=road_graphs_with_densities(), n_supernodes=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), mode=MODES)
@settings(max_examples=150, deadline=None)
def test_superlinks_csr_matches_the_coo_oracle(inputs, n_supernodes, seed, mode):
    """The CSR arrays filled directly equal the COO assembly's: indptr,
    indices, data and their dtypes."""
    adj, densities = inputs
    rng = np.random.default_rng(seed)
    n_supernodes = min(n_supernodes, densities.size)
    member_of = np.concatenate(
        [np.arange(n_supernodes), rng.integers(0, n_supernodes, densities.size - n_supernodes)]
    )
    rng.shuffle(member_of)
    features = rng.random(n_supernodes) if seed % 2 else np.zeros(n_supernodes)
    edges = edge_list(adj)
    fast = superlink_weights(edges, member_of, features, densities, mode=mode)
    slow = superlink_weights_coo(edges, member_of, features, densities, mode=mode)
    assert _csr_arrays(fast) == _csr_arrays(slow)


@given(inputs=road_graphs_with_densities())
@settings(max_examples=100, deadline=None)
def test_streamed_build_matches_the_per_kappa_path(inputs):
    """The streamed scan, the one-fit-at-a-time shortlist and the
    direct CSR superlinks against a build that keeps every kappa's
    result: the MCG list, every ``fit(kappa)``, the shortlist counts,
    the chosen kappa and the supergraph arrays."""
    adj, densities = inputs
    if densities.size < 3:
        return
    builder = SupergraphBuilder()
    supergraph = builder.build(Graph.from_adjacency(adj, features=densities))
    report, oracle = builder.report, build_supergraph_per_kappa(adj, densities)
    assert report.scan.kappas == oracle["kappas"]
    assert np.array(report.scan.mcg).tobytes() == np.array(oracle["mcg"]).tobytes()
    for kappa in report.scan.kappas:
        fit, expected = report.scan.fit(kappa), oracle["fits"][kappa]
        assert fit.labels.tobytes() == expected.labels.tobytes()
        assert fit.centers.tobytes() == expected.centers.tobytes()
        assert (fit.inertia, fit.n_iter) == (expected.inertia, expected.n_iter)
    assert report.shortlisted == oracle["shortlisted"]
    assert report.component_counts == oracle["counts"]
    assert report.chosen_kappa == oracle["chosen_kappa"]
    np.testing.assert_array_equal(supergraph.member_of, oracle["member_of"])
    assert supergraph.features().tobytes() == oracle["features"].tobytes()
    assert _csr_arrays(supergraph.adjacency) == _csr_arrays(oracle["adjacency"])
