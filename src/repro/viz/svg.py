"""SVG rendering of road networks.

Coordinates come straight from the network's planar projection
(metres); the renderer flips the y-axis (SVG grows downward), fits the
drawing into the requested canvas with a margin, and draws every
directed segment as a line. Two-way streets draw their two directions
on top of each other, which is visually correct for city-scale plots.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import DataError
from repro.network.model import RoadNetwork

# A categorical palette with good adjacent-contrast (ColorBrewer Set1 +
# extensions); partition i uses PALETTE[i % len(PALETTE)].
PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
)


def density_color(value: float, vmax: float) -> str:
    """Green→yellow→red ramp for a density ``value`` in [0, vmax]."""
    if vmax <= 0:
        return "#2ca02c"
    t = min(max(value / vmax, 0.0), 1.0)
    if t < 0.5:
        # green (44,160,44) -> yellow (255,221,51)
        u = t / 0.5
        r = int(44 + (255 - 44) * u)
        g = int(160 + (221 - 160) * u)
        b = int(44 + (51 - 44) * u)
    else:
        # yellow -> red (214,39,40)
        u = (t - 0.5) / 0.5
        r = int(255 + (214 - 255) * u)
        g = int(221 + (39 - 221) * u)
        b = int(51 + (40 - 51) * u)
    return f"#{r:02x}{g:02x}{b:02x}"


def _fit_transform(network: RoadNetwork, width: int, height: int, margin: int):
    xs = [i.location.x for i in network.intersections]
    ys = [i.location.y for i in network.intersections]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    scale = min((width - 2 * margin) / span_x, (height - 2 * margin) / span_y)

    def transform(x: float, y: float):
        sx = margin + (x - min_x) * scale
        sy = height - margin - (y - min_y) * scale  # flip y
        return round(sx, 2), round(sy, 2)

    return transform


def _svg_document(
    network: RoadNetwork,
    colors: Sequence[str],
    widths: Sequence[float],
    width: int,
    height: int,
    title: str,
    legend: Optional[List[tuple]] = None,
) -> str:
    if network.n_intersections == 0 or network.n_segments == 0:
        raise DataError("cannot render an empty network")
    transform = _fit_transform(network, width, height, margin=20)

    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{html.escape(title)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for seg in network.segments:
        a, b = network.segment_endpoints(seg.id)
        x1, y1 = transform(a.x, a.y)
        x2, y2 = transform(b.x, b.y)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{colors[seg.id]}" stroke-width="{widths[seg.id]}" '
            f'stroke-linecap="round"/>'
        )
    if legend:
        y = 30
        for label, color in legend:
            lines.append(
                f'<rect x="{width - 150}" y="{y - 10}" width="12" '
                f'height="12" fill="{color}"/>'
            )
            lines.append(
                f'<text x="{width - 132}" y="{y}" font-size="12" '
                f'font-family="sans-serif">{html.escape(str(label))}</text>'
            )
            y += 18
    lines.append("</svg>")
    return "\n".join(lines)


def render_network(
    network: RoadNetwork,
    values: Optional[Sequence[float]] = None,
    width: int = 800,
    height: int = 600,
    title: str = "road network",
) -> str:
    """SVG string of ``network`` coloured by per-segment ``values``.

    ``values`` defaults to the stored densities; the colour ramp runs
    green (free) → red (at the maximum value).
    """
    feats = (
        network.densities()
        if values is None
        else np.asarray(values, dtype=float)
    )
    if feats.shape != (network.n_segments,):
        raise DataError(
            f"values must have shape ({network.n_segments},), got {feats.shape}"
        )
    vmax = float(feats.max()) if feats.size else 0.0
    colors = [density_color(v, vmax) for v in feats]
    widths = [2.0] * network.n_segments
    legend = [
        ("free flow", density_color(0.0, 1.0)),
        ("busy", density_color(0.5, 1.0)),
        ("jammed", density_color(1.0, 1.0)),
    ]
    return _svg_document(network, colors, widths, width, height, title, legend)


def render_partitions(
    network: RoadNetwork,
    labels,
    width: int = 800,
    height: int = 600,
    title: str = "road network partitions",
    legend: bool = True,
) -> str:
    """SVG string of ``network`` coloured by partition id."""
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (network.n_segments,):
        raise DataError(
            f"labels must have shape ({network.n_segments},), got {lab.shape}"
        )
    colors = [PALETTE[int(p) % len(PALETTE)] for p in lab]
    widths = [2.5] * network.n_segments
    entries = None
    if legend:
        k = int(lab.max()) + 1
        entries = [
            (f"partition {i}", PALETTE[i % len(PALETTE)])
            for i in range(min(k, len(PALETTE)))
        ]
    return _svg_document(network, colors, widths, width, height, title, entries)


def save_svg(svg: str, path: Union[str, Path]) -> Path:
    """Write an SVG string to ``path`` and return the path."""
    path = Path(path)
    path.write_text(svg, encoding="utf-8")
    return path
