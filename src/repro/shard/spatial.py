"""Segment midpoints under their old import path."""

from __future__ import annotations

import numpy as np

from repro.network.model import RoadNetwork


def segment_midpoints(network: RoadNetwork) -> np.ndarray:
    """Midpoint coordinates of every segment, shape ``(m, 2)``.

    Same as :meth:`RoadNetwork.segment_midpoints`, which new code
    should call directly.
    """
    return network.segment_midpoints()
