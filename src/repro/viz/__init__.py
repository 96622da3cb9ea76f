"""Dependency-free SVG visualisation of road networks and partitions.

Renders a road network as an SVG document — segments coloured by
partition or by density — without requiring matplotlib, so results are
inspectable anywhere a browser exists.

* :func:`render_network` — segments coloured by a per-segment value;
* :func:`render_partitions` — segments coloured by partition id with
  an optional legend;
* :func:`save_svg` — write the document to disk.
"""

from repro.viz.charts import render_mfd, render_series
from repro.viz.svg import (
    PALETTE,
    density_color,
    render_network,
    render_partitions,
    save_svg,
)

__all__ = [
    "render_network",
    "render_partitions",
    "render_mfd",
    "render_series",
    "save_svg",
    "density_color",
    "PALETTE",
]
