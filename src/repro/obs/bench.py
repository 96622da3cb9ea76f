"""Benchmark history and regression gating.

One-shot benchmark snapshots (``benchmarks/results/*.json``) answer
"how fast is it now?"; catching a *regression* needs the trajectory —
the same benchmark, on the same machine, across commits. This module
maintains that trajectory as an append-only JSONL file
(``benchmarks/results/history.jsonl`` by default) and compares the
newest record of each (benchmark, machine) group against its own
history:

* every record carries the run manifest (:func:`repro.obs.manifest.
  run_manifest`), so the machine fingerprint — platform + python +
  numpy/scipy versions — groups records that are actually comparable;
* the baseline is the **median of the previous runs** (at most
  ``_WINDOW`` of them; robust to a single noisy run) with a
  configurable tolerance band; when history is shorter than
  ``_MIN_HISTORY`` runs the comparator falls back to the **best**
  previous value, which is the sane default for the first few commits
  of a trajectory;
* only keys whose *direction* is known are gated: dotted keys ending
  in ``_s`` / ``_seconds`` / ``_ms`` (wall times, lower is better),
  memory footprints such as ``max_rss_bytes`` / ``peak_alloc_bytes``
  (``*_bytes`` with an rss/alloc/mem marker, lower is better), and
  keys containing ``speedup`` (higher is better). Everything else is
  carried in the record for inspection but never gates.

The CLI surface is ``repro-partition bench compare`` (exit 0 when
clean, 1 on regression, 2 when there is nothing to compare), and the
CI ``bench-gate`` job runs exactly that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.manifest import run_manifest

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY",
    "Comparison",
    "CompareSummary",
    "machine_fingerprint",
    "flatten_numeric",
    "history_record",
    "append_history",
    "load_history",
    "compare_latest",
]

#: Bump when the history-record layout changes incompatibly.
HISTORY_SCHEMA_VERSION = 1

#: Where the benchmark harness appends its records.
DEFAULT_HISTORY = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "history.jsonl"
)

PathLike = Union[str, Path]

#: at most this many prior runs feed a baseline ...
_WINDOW = 10
#: ... and below this many it is the best prior value, not the median
_MIN_HISTORY = 3

# direction suffixes: lower-is-better wall times ...
_TIME_SUFFIXES = ("_s", "seconds", "_ms")
# ... lower-is-better memory footprints (max_rss_bytes, peak_alloc_bytes
# and friends — attached by benchmarks/conftest.save_results) ...
_MEMORY_MARKERS = ("rss", "alloc", "mem")
# ... and higher-is-better ratios.
_HIGHER_MARKERS = ("speedup",)
# higher-is-better throughput rates; checked BEFORE the time suffixes
# because "lookups_per_s" ends in "_s" and would otherwise gate as a
# lower-is-better wall time — i.e. a throughput improvement would flag
# as a regression.
_RATE_MARKERS = ("_per_s", "qps")


def machine_fingerprint(manifest: Optional[Dict[str, Any]]) -> str:
    """Short stable id of the environment a record was produced on.

    Records are only comparable within one fingerprint: a timing moved
    between machines (or python/numpy versions) says nothing about the
    code.
    """
    manifest = manifest or {}
    platform = manifest.get("platform") or {}
    versions = manifest.get("versions") or {}
    parts = [
        str(platform.get("system", "?")),
        str(platform.get("machine", "?")),
        "py" + str(versions.get("python", "?")),
        "np" + str(versions.get("numpy", "?")),
        "sp" + str(versions.get("scipy", "?")),
    ]
    return "-".join(parts)


def flatten_numeric(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``{"a.b.c": number}`` keeping finite leaves.

    Non-numeric leaves (strings, lists, the embedded provenance
    manifest) are dropped — history records store only the measurable
    surface of a benchmark payload.
    """
    out: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "provenance":  # the manifest rides separately
                continue
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, dotted))
    elif isinstance(payload, bool):
        pass  # bools are int-like but not measurements
    elif isinstance(payload, (int, float)):
        value = float(payload)
        if math.isfinite(value) and prefix:
            out[prefix] = value
    return out


def value_direction(key: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` is better, or None when unknown.

    Reference-implementation timings (``reference`` in the leaf) are
    never gated: they time the deliberately-slow baseline kept around
    for speedup ratios, are pure-python noise-sensitive, and the
    speedup itself is already a gated (higher-is-better) value.
    """
    leaf = key.rsplit(".", 1)[-1].lower()
    if "reference" in leaf:
        return None
    if any(marker in leaf for marker in _HIGHER_MARKERS):
        return "higher"
    if leaf.endswith(_RATE_MARKERS):
        return "higher"
    if leaf.endswith(_TIME_SUFFIXES) or "time" in leaf or "duration" in leaf:
        return "lower"
    if leaf.endswith("_bytes") and any(m in leaf for m in _MEMORY_MARKERS):
        return "lower"
    return None


def history_record(
    bench: str,
    payload: Dict[str, Any],
    manifest: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one provenance-stamped history record (not yet written)."""
    if manifest is None:
        manifest = payload.get("provenance") if isinstance(payload, dict) else None
    if manifest is None:
        manifest = run_manifest(extra={"bench": bench})
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "bench": str(bench),
        "recorded_utc": manifest.get("created_utc"),
        "git_sha": manifest.get("git_sha"),
        "fingerprint": machine_fingerprint(manifest),
        "values": flatten_numeric(payload),
        "manifest": manifest,
    }


def append_history(
    bench: str,
    payload: Dict[str, Any],
    path: PathLike = DEFAULT_HISTORY,
    manifest: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one record for ``bench`` to the JSONL history at ``path``."""
    record = history_record(bench, payload, manifest=manifest)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: PathLike = DEFAULT_HISTORY) -> Tuple[List[Dict], int]:
    """Read the JSONL history, tolerating corrupt lines.

    Returns ``(records, n_corrupt)``; a truncated final line (killed
    benchmark run) or a hand-mangled entry must not take the gate down.
    """
    path = Path(path)
    records: List[Dict] = []
    corrupt = 0
    if not path.exists():
        return records, corrupt
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if not isinstance(record, dict) or "bench" not in record:
                corrupt += 1
                continue
            records.append(record)
    return records, corrupt


@dataclass
class Comparison:
    """One gated value of the newest record vs its history baseline."""

    bench: str
    fingerprint: str
    key: str
    current: float
    baseline: float
    direction: str  # "lower" | "higher" is better
    method: str  # "median-of-N" | "best-of-N"
    n_history: int
    tolerance: float
    regressed: bool = False
    ratio: float = 1.0  # current / baseline

    def describe(self) -> str:
        arrow = "REGRESSION" if self.regressed else "ok"
        return (
            f"[{arrow}] {self.bench} :: {self.key} "
            f"current={self.current:.6g} baseline={self.baseline:.6g} "
            f"({self.method}, n={self.n_history}, "
            f"{'lower' if self.direction == 'lower' else 'higher'} is better, "
            f"tol={self.tolerance:.0%})"
        )


@dataclass
class CompareSummary:
    """Everything ``repro bench compare`` reports."""

    comparisons: List[Comparison] = field(default_factory=list)
    skipped_benches: List[str] = field(default_factory=list)
    corrupt_lines: int = 0

    @property
    def regressions(self) -> List[Comparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "n_compared": len(self.comparisons),
            "n_regressions": len(self.regressions),
            "corrupt_lines": self.corrupt_lines,
            "skipped_benches": list(self.skipped_benches),
            "comparisons": [vars(c) for c in self.comparisons],
        }


def _is_regression(
    current: float, baseline: float, direction: str, tolerance: float
) -> bool:
    if baseline == 0:
        return False  # nothing meaningful to gate against
    if direction == "lower":
        return current > baseline * (1.0 + tolerance)
    return current < baseline * (1.0 - tolerance)


def compare_latest(
    records: Iterable[Dict[str, Any]],
    tolerance: float = 0.25,
    bench: Optional[str] = None,
) -> CompareSummary:
    """Compare each group's newest record against its prior runs.

    Parameters
    ----------
    records:
        History records in append (chronological) order.
    tolerance:
        Relative band around the baseline; a timing more than
        ``(1 + tolerance) * baseline`` (or a speedup below
        ``(1 - tolerance) * baseline``) is flagged.
    bench:
        Restrict to one benchmark name (default: all).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    groups: Dict[Tuple[str, str], List[Dict]] = {}
    for record in records:
        name = str(record.get("bench"))
        if bench is not None and name != bench:
            continue
        fingerprint = record.get("fingerprint") or machine_fingerprint(
            record.get("manifest")
        )
        groups.setdefault((name, fingerprint), []).append(record)

    summary = CompareSummary()
    for (name, fingerprint), group in sorted(groups.items()):
        if len(group) < 2:
            summary.skipped_benches.append(name)
            continue
        *history, latest = group
        history = history[-_WINDOW:]
        current_values = latest.get("values") or {}
        for key in sorted(current_values):
            direction = value_direction(key)
            if direction is None:
                continue
            prior = [
                r["values"][key]
                for r in history
                if isinstance(r.get("values"), dict)
                and isinstance(r["values"].get(key), (int, float))
            ]
            if not prior:
                continue
            if len(prior) >= _MIN_HISTORY:
                baseline = float(median(prior))
                method = f"median-of-{len(prior)}"
            else:
                best = min(prior) if direction == "lower" else max(prior)
                baseline = float(best)
                method = f"best-of-{len(prior)}"
            current = float(current_values[key])
            comparison = Comparison(
                bench=name,
                fingerprint=fingerprint,
                key=key,
                current=current,
                baseline=baseline,
                direction=direction,
                method=method,
                n_history=len(prior),
                tolerance=tolerance,
                regressed=_is_regression(current, baseline, direction, tolerance),
                ratio=(current / baseline) if baseline else 1.0,
            )
            summary.comparisons.append(comparison)
    return summary
