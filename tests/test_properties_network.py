"""Property tests: the network on arrays against the object and loop oracles.

``urban_network``, ``grid_network`` and ``hotspot_profile`` build their
networks and densities with whole-array passes, drawing from the RNG in
the order of the per-street loops ``tests/oracles.py`` keeps. The
generators hand arrays to :meth:`RoadNetwork.from_arrays`, which builds
the :class:`RoadSegment`/:class:`Intersection` objects only when they
are read; the oracles build the objects first and hand them to
``RoadNetwork(intersections, segments)``. Module 1 reads the road-graph
CSR straight off the incidence Gram product; the oracle assembles it
from sorted COO pairs. Every property compares exact values: each
intersection location, each :class:`RoadSegment` field and its type,
every accessor, the midpoints, the float bytes and the CSR bytes.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _build_network_loop,
    grid_network_loop,
    hotspot_profile_loop,
    road_graph_adjacency_coo,
    segment_adjacency_reference,
    segment_midpoints_loop,
    urban_network_loop,
)

from repro.datasets.large import melbourne_like
from repro.exceptions import NetworkError
from repro.graph.adjacency import Graph
from repro.network.dual import build_road_graph, segment_adjacency
from repro.network.generators import (
    _build_network,
    grid_network,
    ring_radial_network,
    urban_network,
)
from repro.network.geometry import Point
from repro.network.model import Intersection, RoadNetwork, RoadSegment
from repro.shard.spatial import segment_midpoints
from repro.traffic.profiles import hotspot_profile

SEGMENT_FIELDS = ("id", "source", "target", "length", "density", "lanes", "speed_limit", "name")

SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)


def typed(value):
    """``value`` with its type; floats by their bytes (so -0.0 != 0.0)."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def typed_point(point):
    return typed(point.x), typed(point.y)


def assert_same_network(net, ref):
    """``net`` equals ``ref`` through every accessor, array ones first
    (before ``net`` builds its objects), then the objects themselves.
    The loop formulas over ``ref``'s objects pin what each array
    accessor computed when the network read its objects."""
    m = ref.n_segments
    assert (net.n_intersections, net.n_segments) == (ref.n_intersections, m)
    densities = np.array([s.density for s in ref.segments], dtype=float)
    assert net.densities().tobytes() == densities.tobytes()
    assert ref.densities().tobytes() == densities.tobytes()
    total = float(sum(s.length for s in ref.segments))
    assert typed(net.total_length()) == typed(ref.total_length()) == typed(total)
    if ref.n_intersections:
        xs = [i.location.x for i in ref.intersections]
        ys = [i.location.y for i in ref.intersections]
        area = (max(xs) - min(xs)) * (max(ys) - min(ys)) / 1e6
    else:
        area = 0.0
    assert typed(net.area_km2()) == typed(ref.area_km2()) == typed(area)
    for got, want in zip(net.segment_endpoint_ids(), ref.segment_endpoint_ids()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert net.segment_midpoints().tobytes() == segment_midpoints_loop(ref).tobytes()
    for seg in ref.segments:
        a = ref.intersection(seg.source).location
        b = ref.intersection(seg.target).location
        ends = net.segment_endpoints(seg.id)
        assert [typed_point(p) for p in ends] == [typed_point(a), typed_point(b)]
        assert typed_point(net.segment_midpoint(seg.id)) == typed_point(a.midpoint(b))
    assert [(typed(i.id), typed_point(i.location)) for i in net.intersections] == [
        (typed(i.id), typed_point(i.location)) for i in ref.intersections
    ]
    assert [tuple(typed(getattr(s, f)) for f in SEGMENT_FIELDS) for s in net.segments] == [
        tuple(typed(getattr(s, f)) for f in SEGMENT_FIELDS) for s in ref.segments
    ]
    assert [net.segment(sid) for sid in range(m)] == list(net.segments)
    assert [net.intersection(iid) for iid in range(ref.n_intersections)] == list(
        net.intersections
    )
    for iid in range(ref.n_intersections):
        assert net.outgoing(iid) == ref.outgoing(iid)
        assert net.incoming(iid) == ref.incoming(iid)


@st.composite
def urban_params(draw):
    return dict(
        n_rows=draw(st.integers(2, 14)),
        n_cols=draw(st.integers(2, 14)),
        spacing=draw(st.sampled_from([120.0, 75.5, 100])),
        cbd_fraction=draw(UNIT),
        two_way_fraction=draw(UNIT),
        removal_fraction=draw(st.floats(0.0, 0.99, exclude_max=True)),
        jitter=draw(st.floats(0.0, 0.5, exclude_max=True)),
        seed=draw(SEEDS),
    )


@settings(max_examples=60, deadline=None)
@given(urban_params())
def test_urban_network_matches_loop(params):
    assert_same_network(urban_network(**params), urban_network_loop(**params))


@settings(max_examples=25, deadline=None)
@given(urban_params())
def test_urban_network_leaves_rng_where_loop_does(params):
    rng_a, rng_b = np.random.default_rng(params["seed"]), np.random.default_rng(params["seed"])
    urban_network(**{**params, "seed": rng_a})
    urban_network_loop(**{**params, "seed": rng_b})
    assert rng_a.random() == rng_b.random()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(2, 9),
    st.sampled_from([100.0, 33.3, 7]),
    st.booleans(),
)
def test_grid_network_matches_loop(n_rows, n_cols, spacing, two_way):
    assert_same_network(
        grid_network(n_rows, n_cols, spacing=spacing, two_way=two_way),
        grid_network_loop(n_rows, n_cols, spacing=spacing, two_way=two_way),
    )


@settings(max_examples=40, deadline=None)
@given(urban_params())
def test_segment_midpoints_match_per_segment(params):
    net = urban_network(**params)
    expected = segment_midpoints_loop(net)
    assert net.segment_midpoints().tobytes() == expected.tobytes()
    assert segment_midpoints(net).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    urban_params(),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.15, 0.4]),
    st.floats(0.05, 1.0),
    st.booleans(),
    SEEDS,
)
def test_hotspot_profile_matches_loop(params, n_hotspots, noise, decay, given_spots, seed):
    net = urban_network(**params)
    kwargs = dict(n_hotspots=n_hotspots, noise=noise, decay=decay)
    if given_spots:
        spots = np.random.default_rng(seed).uniform(0.0, 1000.0, size=(n_hotspots, 2))
        kwargs["hotspots"] = [tuple(p) for p in spots]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = hotspot_profile(net, seed=rng_a, **kwargs)
    expected = hotspot_profile_loop(net, seed=rng_b, **kwargs)
    assert got.tobytes() == expected.tobytes()
    assert rng_a.random() == rng_b.random()


# the scales the golden labels pin, plus the paper-sized presets
@pytest.mark.parametrize(
    "preset, factor, rows",
    [
        ("M1", 0.08, 6),
        ("M1", 0.25, 18),
        ("M2", 0.25, 32),
        ("M3", 0.3, 48),
        ("M1", 1.0, 74),
        ("M2", 1.0, 130),
        ("M3", 1.0, 159),
    ],
)
def test_melbourne_like_matches_loop(preset, factor, rows):
    net, densities = melbourne_like(preset, size_factor=factor, seed=0)
    rng = np.random.default_rng(0)
    ref = urban_network_loop(rows, rows, seed=rng)
    assert_same_network(net, ref)
    assert densities.tobytes() == hotspot_profile_loop(ref, n_hotspots=5, seed=rng).tobytes()


# ----------------------------------------------------------------------
# RoadNetwork on arrays against RoadNetwork on objects


@st.composite
def street_layouts(draw):
    """Inputs of the generators' ``_build_network``: intersection
    coordinates (all ints or all floats), streets (repeats allowed,
    coincident endpoints possible), a two-way mask and optional speed
    limits."""
    n = draw(st.integers(2, 10))
    if draw(st.booleans()):
        coord = st.integers(-300, 300)
        dtype = np.int64
    else:
        coord = st.floats(-1e4, 1e4, allow_nan=False)
        dtype = float
    xs = np.array(draw(st.lists(coord, min_size=n, max_size=n)), dtype=dtype)
    ys = np.array(draw(st.lists(coord, min_size=n, max_size=n)), dtype=dtype)
    node = st.integers(0, n - 1)
    streets = draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * n)
    )
    k = len(streets)
    two_way = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    speeds = draw(
        st.none() | st.lists(st.floats(0.5, 40.0), min_size=k, max_size=k)
    )
    return xs, ys, streets, two_way, speeds


def build_both(xs, ys, streets, two_way, speeds):
    """The array network and the object oracle, or both error messages."""
    u, v = np.array(streets, dtype=np.int64).reshape(-1, 2).T
    try:
        net = _build_network(
            xs, ys, u, v, np.array(two_way, dtype=bool),
            None if speeds is None else np.array(speeds, dtype=float),
        )
    except NetworkError as exc:
        net = str(exc)
    try:
        ref = _build_network_loop(
            list(map(Point, xs.tolist(), ys.tolist())), streets, two_way, speeds
        )
    except NetworkError as exc:
        ref = str(exc)
    return net, ref


@settings(max_examples=80, deadline=None)
@given(street_layouts())
def test_array_network_matches_object_network(layout):
    net, ref = build_both(*layout)
    if isinstance(ref, str):
        assert net == ref
    else:
        assert_same_network(net, ref)


@settings(max_examples=40, deadline=None)
@given(street_layouts(), st.data())
def test_set_densities_before_and_after_objects_are_built(layout, data):
    net, ref = build_both(*layout)
    if isinstance(ref, str):
        return
    density = st.lists(
        st.floats(0.0, 1.0), min_size=ref.n_segments, max_size=ref.n_segments
    )
    first = np.array(data.draw(density), dtype=float)
    net.set_densities(first)
    ref.set_densities(first)
    assert_same_network(net, ref)  # builds net's objects, with `first`
    second = np.array(data.draw(density), dtype=float)
    net.set_densities(second)
    ref.set_densities(second)
    assert [s.density for s in net.segments] == second.tolist()
    assert_same_network(net, ref)


def test_densities_is_a_copy():
    net = grid_network(3, 3)
    net.densities()[:] = 5.0
    assert not net.densities().any()
    given_densities = np.full(net.n_segments, 0.1)
    net.set_densities(given_densities)
    given_densities[:] = 7.0
    assert (net.densities() == 0.1).all()
    seg = net.segment(0)
    seg.density = 3.0  # not a density writer
    assert net.densities()[0] == 0.1


def test_from_arrays_leaves_its_inputs_writeable():
    xs, ys = np.array([0.0, 1.0]), np.array([0.0, 0.0])
    source, target, length = np.array([0]), np.array([1]), np.array([1.0])
    net = RoadNetwork.from_arrays(xs, ys, source, target, length)
    for arr in (xs, ys, source, target, length):
        assert arr.flags.writeable
    source[0] = 1
    assert net.segment(0).source == 0


@st.composite
def segment_arrays(draw):
    """Per-segment arrays where any entry may break a check: self-loops,
    endpoints out of range, non-positive lengths and speed limits."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 8))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))

    xs = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    ends = list(range(n)) * 3 + [-1, n]
    return dict(
        xs=xs,
        ys=ys,
        source=column(ends),
        target=column(ends),
        length=column([12.5, 80.0, 3.0, 0.0, -1.0]),
        speed_limit=column([13.9, 11.1, 16.7, 20.0, 0.0, -2.0]),
    )


def network_from_objects(a):
    intersections = [Intersection(i, Point(x, y)) for i, (x, y) in enumerate(zip(a["xs"], a["ys"]))]
    segments = [
        RoadSegment(k, s, t, length=ln, speed_limit=sp)
        for k, (s, t, ln, sp) in enumerate(
            zip(a["source"], a["target"], a["length"], a["speed_limit"])
        )
    ]
    return RoadNetwork(intersections, segments)


@settings(max_examples=150, deadline=None)
@given(segment_arrays())
def test_from_arrays_raises_the_object_paths_first_error(arrays):
    try:
        ref = network_from_objects(arrays)
    except NetworkError as exc:
        with pytest.raises(NetworkError) as got:
            RoadNetwork.from_arrays(**arrays)
        assert str(got.value) == str(exc)
    else:
        assert_same_network(RoadNetwork.from_arrays(**arrays), ref)


def test_from_arrays_rejects_mismatched_shapes():
    with pytest.raises(NetworkError, match="xs and ys"):
        RoadNetwork.from_arrays([0.0, 1.0], [0.0], [0], [1], [1.0])
    with pytest.raises(NetworkError, match=r"length must have shape \(1,\)"):
        RoadNetwork.from_arrays([0.0, 1.0], [0.0, 0.0], [0], [1], [1.0, 2.0])


# ----------------------------------------------------------------------
# module 1: the CSR off the Gram product against the sorted COO pairs


@st.composite
def generated_networks(draw):
    kind = draw(st.sampled_from(["urban", "grid", "ring_radial"]))
    if kind == "urban":
        return urban_network(**draw(urban_params()))
    if kind == "grid":
        return grid_network(
            draw(st.integers(2, 9)), draw(st.integers(2, 9)), two_way=draw(st.booleans())
        )
    return ring_radial_network(
        draw(st.integers(1, 5)),
        draw(st.integers(3, 9)),
        ring_spacing=draw(st.sampled_from([200.0, 35.5])),
        two_way=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(generated_networks())
def test_road_graph_csr_matches_coo_oracle(net):
    got = build_road_graph(net)
    want = Graph.from_adjacency(road_graph_adjacency_coo(net), features=net.densities())
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got.adjacency, field), getattr(want.adjacency, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.adjacency.indptr.dtype == np.int32
    assert got.features.tobytes() == want.features.tobytes()
    assert segment_adjacency(net) == segment_adjacency_reference(net)
