"""Property tests: the network generators on arrays against the loop oracles.

``urban_network``, ``grid_network`` and ``hotspot_profile`` build their
networks and densities with whole-array passes, drawing from the RNG in
the order of the per-street loops ``tests/oracles.py`` keeps. Every
property compares exact values: each intersection location, each
:class:`RoadSegment` field, the midpoints and the density bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    grid_network_loop,
    hotspot_profile_loop,
    segment_midpoints_loop,
    urban_network_loop,
)

from repro.datasets.large import melbourne_like
from repro.network.generators import grid_network, urban_network
from repro.shard.spatial import segment_midpoints
from repro.traffic.profiles import hotspot_profile

SEGMENT_FIELDS = ("id", "source", "target", "length", "density", "lanes", "speed_limit", "name")

SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)


def assert_same_network(net, ref):
    assert net.n_intersections == ref.n_intersections
    assert [(i.id, i.location.x, i.location.y) for i in net.intersections] == [
        (i.id, i.location.x, i.location.y) for i in ref.intersections
    ]
    assert [tuple(getattr(s, f) for f in SEGMENT_FIELDS) for s in net.segments] == [
        tuple(getattr(s, f) for f in SEGMENT_FIELDS) for s in ref.segments
    ]
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
