"""Road-network substrate.

Models real urban road networks (Definition 1 of the paper): a set of
intersection points connected by directed road segments, each carrying
a traffic density. Provides the dual transform into the *road graph*
(Definition 2), synthetic network generators standing in for the
paper's San Francisco / Melbourne extracts, and (de)serialisation.
"""

from repro.network.dual import build_road_graph, segment_adjacency
from repro.network.generators import (
    grid_network,
    ring_radial_network,
    urban_network,
)
from repro.network.geometry import Point, euclidean, polyline_length
from repro.network.model import Intersection, RoadNetwork, RoadSegment

__all__ = [
    "Point",
    "euclidean",
    "polyline_length",
    "Intersection",
    "RoadSegment",
    "RoadNetwork",
    "build_road_graph",
    "segment_adjacency",
    "grid_network",
    "ring_radial_network",
    "urban_network",
]
