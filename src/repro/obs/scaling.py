"""Scaling-law fitting and forecasting over the benchmark history.

The benchmark harness records the same stages at several network sizes
— one :func:`repro.obs.bench.history_record` of the Table 3 bench
carries ``D1.module1`` ... ``M3-small.module3`` with a per-dataset
segment count. That is exactly the data a power law ``t ≈ a·n^b``
wants: :func:`collect_points` groups time-like leaves with the size
key of their dataset, :func:`fit_power_law` fits the exponent per
stage in log-log space, and :func:`fit_scaling` flags superlinear
stages (``b >`` :data:`SUPERLINEAR_EXPONENT` on a fit with ``r2 >=``
:data:`FLAG_MIN_R2` over at least :data:`FLAG_MIN_SIZES` distinct
sizes; a steep fit on thinner data is reported as withheld) and
forecasts each stage's cost at a target size — by default 100k
segments, the paper's M3 Melbourne network — so "module 3 will
dominate at city scale" is a number, not a hunch.

CLI surface: ``repro-partition obs scaling`` (exit 2 when the history
holds no multi-size stage to fit).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import DataError
from repro.obs.bench import DEFAULT_HISTORY, load_history, value_direction

__all__ = [
    "SCALING_SCHEMA_VERSION",
    "SUPERLINEAR_EXPONENT",
    "FLAG_MIN_R2",
    "FLAG_MIN_SIZES",
    "DEFAULT_FORECAST_N",
    "SIZE_KEYS",
    "fit_power_law",
    "collect_points",
    "fit_scaling",
    "fit_scaling_from_history",
    "render_scaling",
]

#: Bump when the scaling-report layout changes incompatibly.
SCALING_SCHEMA_VERSION = 1

#: Fitted exponents above this flag a stage as superlinear — growing
#: meaningfully faster than the input, the stages that blow up first
#: at city scale. (1.1 rather than 1.0 leaves room for fit noise and
#: the n·log n of sorting-bound stages.)
SUPERLINEAR_EXPONENT = 1.1

#: A steep exponent only becomes a ``superlinear`` flag when the fit
#: explains at least this share of the log-log variance ...
FLAG_MIN_R2 = 0.9

#: ... and saw at least this many distinct sizes; two or three sizes
#: say little about the shape of a curve.
FLAG_MIN_SIZES = 4

#: Default forecast size: the paper's M3 Melbourne network (~100k
#: road segments), the scale the framework is meant to reach.
DEFAULT_FORECAST_N = 100_000

#: Leaf names that carry a problem size (number of road segments /
#: graph nodes) for their group of measurements.
SIZE_KEYS = ("n_segments", "segments", "n_nodes")

#: Stage-name prefixes that are wall times even though their leaf has
#: no ``_s`` suffix — the framework's per-module timings.
_MODULE_STAGES = ("module1", "module2", "module3", "total")

PathLike = Union[str, Path]


def fit_power_law(
    ns: Iterable[float], ts: Iterable[float]
) -> Tuple[float, float, float]:
    """Least-squares fit of ``t = a * n^b`` in log-log space.

    Returns ``(a, b, r2)``. Requires >= 2 distinct positive sizes with
    positive times; raises :class:`repro.exceptions.DataError`
    otherwise (a one-point "fit" would forecast garbage silently).
    """
    points = [
        (float(n), float(t))
        for n, t in zip(ns, ts)
        if float(n) > 1.0 and float(t) > 0.0
    ]
    if len({n for n, __ in points}) < 2:
        raise DataError(
            "power-law fit needs measurements at >= 2 distinct sizes "
            f"(got {len(points)} usable points)"
        )
    logs = [(math.log(n), math.log(t)) for n, t in points]
    n_pts = float(len(logs))
    mean_x = sum(x for x, __ in logs) / n_pts
    mean_y = sum(y for __, y in logs) / n_pts
    sxx = sum((x - mean_x) ** 2 for x, __ in logs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in logs)
    b = sxy / sxx
    log_a = mean_y - b * mean_x
    ss_tot = sum((y - mean_y) ** 2 for __, y in logs)
    ss_res = sum((y - (log_a + b * x)) ** 2 for x, y in logs)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return math.exp(log_a), b, r2


def _time_like(stage: str) -> bool:
    """Whether a stage key measures wall time.

    ``value_direction`` covers the suffixed keys (``*_s``,
    ``*_seconds``, ``duration`` ...); the framework's module timings
    (``module1``, ``module2.scan``, ``total``) carry no suffix and are
    matched by prefix. Memory footprints are excluded — bytes scale
    too, but not on the axis this module fits.
    """
    leaf = stage.rsplit(".", 1)[-1].lower()
    if leaf.endswith("_bytes"):
        return False
    if value_direction(stage) == "lower":
        return True
    head = stage.split(".", 1)[0].lower()
    return head in _MODULE_STAGES


def collect_points(
    records: Iterable[Dict[str, Any]]
) -> Dict[str, List[Tuple[float, float]]]:
    """Harvest ``stage -> [(n, seconds), ...]`` from history records.

    Within one record's flattened ``values``, a size key (see
    :data:`SIZE_KEYS`) scopes every other leaf sharing its dotted
    prefix: ``D1.segments`` sizes ``D1.module1``/``D1.total``, a
    top-level ``n_segments`` sizes the un-prefixed leaves. Stage names
    are prefix-stripped, so ``D1.module1`` and ``M3-small.module1``
    both feed the ``module1`` fit — one multi-dataset record yields
    one point per (stage, size).
    """
    points: Dict[str, List[Tuple[float, float]]] = {}
    for record in records:
        values = record.get("values")
        if not isinstance(values, dict):
            continue
        sizes: Dict[str, float] = {}  # prefix ("" = top level) -> n
        for key, value in values.items():
            head, __, leaf = key.rpartition(".")
            if leaf in SIZE_KEYS and isinstance(value, (int, float)) and value > 1:
                sizes[head] = float(value)
        if not sizes:
            continue
        for key, value in values.items():
            if not isinstance(value, (int, float)) or value <= 0:
                continue
            # longest matching size prefix scopes this measurement
            prefix = None
            for candidate in sizes:
                if candidate == "" or key.startswith(candidate + "."):
                    if prefix is None or len(candidate) > len(prefix):
                        prefix = candidate
            if prefix is None:
                continue
            stage = key[len(prefix) + 1 :] if prefix else key
            if stage.rsplit(".", 1)[-1] in SIZE_KEYS:
                continue
            if not _time_like(stage):
                continue
            points.setdefault(stage, []).append((sizes[prefix], float(value)))
    return points


def fit_scaling(
    records: Iterable[Dict[str, Any]],
    forecast_n: int = DEFAULT_FORECAST_N,
    min_points: int = 2,
) -> Dict[str, Any]:
    """Fit a power law per stage and forecast each at ``forecast_n``.

    Returns the scaling report document: per-stage ``a``/``b``/``r2``,
    the size range and count of distinct sizes the fit saw, a
    ``superlinear`` flag (withheld below :data:`FLAG_MIN_R2` or
    :data:`FLAG_MIN_SIZES`) and the forecast seconds at
    ``forecast_n``. Stages without measurements at two distinct sizes
    are listed under ``skipped`` rather than silently dropped.
    """
    if forecast_n < 2:
        raise DataError(f"forecast_n must be >= 2, got {forecast_n}")
    records = list(records)
    points = collect_points(records)
    stages: List[Dict[str, Any]] = []
    skipped: List[Dict[str, Any]] = []
    for stage in sorted(points):
        stage_points = points[stage]
        ns = [n for n, __ in stage_points]
        ts = [t for __, t in stage_points]
        distinct = len(set(ns))
        if distinct < max(min_points, 2):
            skipped.append(
                {"stage": stage, "n_points": len(stage_points), "distinct_sizes": distinct}
            )
            continue
        a, b, r2 = fit_power_law(ns, ts)
        stages.append(
            {
                "stage": stage,
                "n_points": len(stage_points),
                "distinct_sizes": distinct,
                "n_min": min(ns),
                "n_max": max(ns),
                "a": a,
                "b": b,
                "r2": r2,
                "superlinear": b > SUPERLINEAR_EXPONENT
                and r2 >= FLAG_MIN_R2
                and distinct >= FLAG_MIN_SIZES,
                "forecast_s": a * float(forecast_n) ** b,
            }
        )
    stages.sort(key=lambda s: -s["forecast_s"])
    return {
        "schema_version": SCALING_SCHEMA_VERSION,
        "n_records": len(records),
        "forecast_n": int(forecast_n),
        "superlinear_exponent": SUPERLINEAR_EXPONENT,
        "stages": stages,
        "skipped": skipped,
    }


def fit_scaling_from_history(
    path: PathLike = DEFAULT_HISTORY,
    bench: Optional[str] = None,
    forecast_n: int = DEFAULT_FORECAST_N,
) -> Dict[str, Any]:
    """:func:`fit_scaling` over the JSONL history file at ``path``."""
    records, __ = load_history(path)
    if bench is not None:
        records = [r for r in records if r.get("bench") == bench]
    return fit_scaling(records, forecast_n=forecast_n)


def render_scaling(report: Dict[str, Any]) -> str:
    """Human-readable scaling report (what the CLI prints sans --json)."""
    stages = report.get("stages", [])
    forecast_n = report.get("forecast_n", DEFAULT_FORECAST_N)
    lines = [
        f"scaling fits over {report.get('n_records', 0)} history records "
        f"({len(stages)} stages with >= 2 sizes):",
        "",
        f"{'stage':<24} {'exponent':>9} {'r2':>6} {'sizes':>17} "
        f"{'t(n={:,})'.format(forecast_n):>14}",
    ]
    for stage in stages:
        flag = ""
        if stage["superlinear"]:
            flag = "  SUPERLINEAR"
        elif stage["b"] > SUPERLINEAR_EXPONENT:
            flag = (
                f"  superlinear withheld (r2 {stage['r2']:.2f}, "
                f"{stage['distinct_sizes']} sizes)"
            )
        lines.append(
            f"{stage['stage']:<24} {stage['b']:>9.3f} {stage['r2']:>6.3f} "
            f"{int(stage['n_min']):>7,}-{int(stage['n_max']):<8,} "
            f"{stage['forecast_s']:>13.2f}s{flag}"
        )
    skipped = report.get("skipped", [])
    if skipped:
        lines.append(
            f"\nskipped (single size, nothing to fit): "
            + ", ".join(s["stage"] for s in skipped)
        )
    superlinear = [s for s in stages if s["superlinear"]]
    if superlinear:
        lines.append(
            "\nsuperlinear stages (first to blow up at city scale): "
            + ", ".join(f"{s['stage']} (n^{s['b']:.2f})" for s in superlinear)
        )
    return "\n".join(lines)
