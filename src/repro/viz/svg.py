"""SVG rendering of road networks.

Coordinates come straight from the network's planar projection
(metres); the renderer flips the y-axis (SVG grows downward), fits the
drawing into the requested canvas with a margin, and draws every
directed segment as a line. Two-way streets draw their two directions
on top of each other, which is visually correct for city-scale plots.
"""

from __future__ import annotations

import html
import zlib
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


def render_timeline(
    bars: Sequence[tuple],
    width: int = 900,
    row_height: int = 22,
    title: str = "trace timeline",
) -> str:
    """SVG flame-chart of trace spans.

    ``bars`` is a sequence of ``(name, start_s, duration_s, depth)``
    tuples (what :mod:`repro.obs.report` extracts from a trace); each
    bar is drawn at its depth row, horizontally scaled to the overall
    trace extent, coloured from :data:`PALETTE` by name hash so the
    same module keeps its colour across reports.
    """
    if not bars:
        raise DataError("cannot render an empty timeline")
    t0 = min(b[1] for b in bars)
    t1 = max(b[1] + b[2] for b in bars)
    span = max(t1 - t0, 1e-9)
    max_depth = max(int(b[3]) for b in bars)
    margin, label_h = 10, 24
    height = label_h + (max_depth + 1) * (row_height + 4) + margin
    scale = (width - 2 * margin) / span

    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{html.escape(title)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="16" font-size="13" font-family="sans-serif" '
        f'font-weight="bold">{html.escape(title)} '
        f"({span:.3f}s)</text>",
    ]
    for name, start, duration, depth in bars:
        x = margin + (start - t0) * scale
        w = max(duration * scale, 1.0)
        y = label_h + int(depth) * (row_height + 4)
        color = PALETTE[zlib.crc32(str(name).encode("utf-8")) % len(PALETTE)]
        label = html.escape(f"{name} ({duration:.4f}s)")
        lines.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_height}" '
            f'fill="{color}" fill-opacity="0.85" rx="2">'
            f"<title>{label}</title></rect>"
        )
        if w > 60:  # only label bars wide enough to hold text
            lines.append(
                f'<text x="{x + 4:.2f}" y="{y + row_height - 7}" font-size="11" '
                f'font-family="sans-serif" fill="white">{html.escape(str(name))}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines)


def render_sparkline(
    values: Sequence[float],
    width: int = 220,
    height: int = 36,
    color: str = "#377eb8",
    title: str = "",
) -> str:
    """Inline SVG sparkline of a small value series.

    The live ``/dashboard`` and the flight-recorder's telemetry pane
    embed one per time series: a polyline fitted to the canvas with a
    2px margin, a filled dot on the last sample, and the min/max span
    in the hover title. A single sample renders as a flat line.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise DataError("cannot render an empty sparkline")
    lo, hi = min(vals), max(vals)
    span = max(hi - lo, 1e-12)
    margin = 2.0
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin
    n = len(vals)

    def point(i: int, v: float):
        x = margin + (inner_w * i / max(n - 1, 1))
        y = margin + inner_h * (1.0 - (v - lo) / span)
        return round(x, 2), round(y, 2)

    points = [point(i, v) for i, v in enumerate(vals)]
    poly = " ".join(f"{x},{y}" for x, y in points)
    hover = title or f"{n} samples, min {lo:.4g}, max {hi:.4g}"
    last_x, last_y = points[-1]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f"<title>{html.escape(hover)}</title>"
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline points="{poly}" fill="none" stroke="{color}" '
        f'stroke-width="1.5" stroke-linejoin="round"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5" fill="{color}"/>'
        f"</svg>"
    )


def render_convergence(
    series: "dict[str, Sequence[float]]",
    width: int = 320,
    height: int = 96,
    title: str = "convergence",
    converged: Optional[bool] = None,
) -> str:
    """Inline SVG pane of a solver's per-iteration series.

    ``series`` maps series names (``"residual"``, ``"inertia"``,
    ``"moves"`` ...) to their per-iteration values — exactly the
    ``series`` of a :class:`repro.obs.convergence.ConvergenceTrace`.
    Each series is min-max normalised independently (a residual
    falling 12 orders of magnitude and an inertia falling 2x share one
    canvas) and drawn as a :data:`PALETTE`-coloured polyline with its
    value range in the hover title. A red border flags an unconverged
    run; single-sample series render as flat lines.
    """
    named = {
        str(name): [float(v) for v in vals]
        for name, vals in series.items()
        if len(vals) > 0
    }
    if not named:
        raise DataError("cannot render convergence without series data")
    margin, label_h = 4.0, 16
    inner_w = width - 2 * margin
    inner_h = height - label_h - 2 * margin

    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{html.escape(title)}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="12" font-size="11" font-family="sans-serif" '
        f'font-weight="bold">{html.escape(title)}</text>',
    ]
    if converged is False:
        lines.append(
            f'<rect x="0.5" y="0.5" width="{width - 1}" height="{height - 1}" '
            f'fill="none" stroke="#e41a1c" stroke-width="1.5">'
            f"<title>solver did not converge</title></rect>"
        )
    for index, (name, vals) in enumerate(sorted(named.items())):
        lo, hi = min(vals), max(vals)
        span = max(hi - lo, 1e-12)
        n = len(vals)
        points = []
        for i, v in enumerate(vals):
            x = margin + inner_w * i / max(n - 1, 1)
            y = label_h + margin + inner_h * (1.0 - (v - lo) / span)
            points.append(f"{round(x, 2)},{round(y, 2)}")
        color = PALETTE[index % len(PALETTE)]
        hover = html.escape(
            f"{name}: {n} iterations, first {vals[0]:.4g}, "
            f"last {vals[-1]:.4g} (min {lo:.4g}, max {hi:.4g})"
        )
        lines.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" stroke-linejoin="round">'
            f"<title>{hover}</title></polyline>"
        )
        # series key, one swatch per line in the top-right corner
        key_x = width - margin - 80
        key_y = 8 + 11 * index
        if key_y < height - 4:
            lines.append(
                f'<rect x="{key_x}" y="{key_y - 6}" width="8" height="8" '
                f'fill="{color}"/>'
                f'<text x="{key_x + 11}" y="{key_y + 2}" font-size="9" '
                f'font-family="sans-serif">{html.escape(name)}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines)


def save_svg(svg: str, path: Union[str, Path]) -> Path:
    """Write an SVG string to ``path`` and return the path."""
    path = Path(path)
    path.write_text(svg, encoding="utf-8")
    return path
