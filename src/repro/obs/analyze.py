"""Trace analytics: critical paths, per-stage times, optimization targets.

This module *reads* a trace. Given a span forest — a live
:class:`repro.obs.trace.Tracer`, its nested-JSON export, or a Chrome
trace-event document — :func:`analyze_trace` produces an
:class:`AnalysisReport` answering the questions a timeline forces you
to eyeball:

* **critical path** — the chain of longest spans from the root down,
  i.e. the wall-clock you would have to shorten to make the run faster;
* **self vs total time per stage** — span durations aggregated by
  name, with self time = duration minus the union of child intervals,
  so for a serial trace the per-stage self times sum back to the wall
  clock;
* **optimization targets** — stages ranked by self time, annotated
  with critical-path and solver-convergence caveats;
* **convergence traces** — every :class:`repro.obs.convergence.
  ConvergenceTrace` harvested from span attributes, with its host span.

The CLI surface is ``repro-partition obs analyze <trace.json>``;
``validate_analysis`` is the strict schema check the CI obs-smoke job
runs on the emitted document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import DataError
from repro.obs.convergence import ConvergenceTrace, traces_from_attrs

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisReport",
    "analyze_trace",
    "validate_analysis",
]

#: Bump when the serialized AnalysisReport layout changes incompatibly.
ANALYSIS_SCHEMA_VERSION = 2


class _Node:
    """Uniform in-memory span: every input format converts to this."""

    __slots__ = ("name", "start", "duration", "attrs", "children")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = str(name)
        self.start = float(start)
        self.duration = max(float(duration), 0.0)
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List["_Node"] = []

    @property
    def end(self) -> float:
        return self.start + self.duration


# ----------------------------------------------------------------------
# input adapters
def _from_span(span: Any) -> _Node:
    """Live :class:`repro.obs.trace.Span` → node."""
    node = _Node(span.name, span.start, span.duration, dict(span.attrs))
    node.children = [_from_span(child) for child in span.children]
    return node


def _from_tree(payload: Dict[str, Any]) -> _Node:
    """Nested-JSON span dict (``Span.to_dict`` form) → node."""
    node = _Node(
        payload.get("name", "?"),
        payload.get("start_s", 0.0),
        payload.get("duration_s", 0.0),
        dict(payload.get("attrs") or {}),
    )
    node.children = [_from_tree(c) for c in payload.get("children", [])]
    return node


def _from_chrome(events: Sequence[Dict[str, Any]]) -> List[_Node]:
    """Flat Chrome complete events → forest, nesting recovered per lane.

    Lanes are ``(pid, tid)`` pairs, as in Perfetto's timeline; within
    a lane, containment by timestamp reconstructs the tree (events
    sorted by start, longest first on ties, with a stack of still-open
    ancestors).
    """
    complete = [e for e in events if e.get("ph") == "X"]
    by_lane: Dict[Any, List[Dict]] = {}
    for event in complete:
        by_lane.setdefault((event.get("pid", 0), event.get("tid", 0)), []).append(event)
    roots: List[_Node] = []
    for lane_key in sorted(by_lane, key=lambda key: (str(key[0]), str(key[1]))):
        lane = sorted(
            by_lane[lane_key],
            key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))),
        )
        stack: List[_Node] = []  # still-open ancestors
        for event in lane:
            node = _Node(
                event.get("name", "?"),
                float(event.get("ts", 0.0)) / 1e6,
                float(event.get("dur", 0.0)) / 1e6,
                dict(event.get("args") or {}),
            )
            while stack and node.start >= stack[-1].end - 1e-9:
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    return roots


def _to_forest(trace: Any) -> List[_Node]:
    """Any supported trace form → list of root nodes."""
    roots = getattr(trace, "roots", None)
    if roots is not None:  # a live Tracer
        return [_from_span(span) for span in roots]
    if isinstance(trace, dict):
        if "traceEvents" in trace:
            return _from_chrome(trace["traceEvents"])
        if "spans" in trace:
            return [_from_tree(span) for span in trace["spans"]]
    if isinstance(trace, (list, tuple)):  # bare Chrome event array
        return _from_chrome(trace)
    raise DataError(
        "unrecognised trace: expected a Tracer, a nested-JSON trace "
        "({'spans': [...]}) or a Chrome trace document ({'traceEvents': [...]})"
    )


# ----------------------------------------------------------------------
# interval arithmetic
def _merge_intervals(
    intervals: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping ``(start, end)`` intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _self_seconds(node: _Node) -> float:
    """Duration minus the union of child intervals, clipped to the node.

    The union (not the sum) counts time that children share once; in
    a serial trace they overlap only by timestamp jitter.
    """
    if not node.children:
        return node.duration
    covered = sum(
        end - start
        for start, end in _merge_intervals(
            [
                (max(c.start, node.start), min(c.end, node.end))
                for c in node.children
            ]
        )
    )
    return max(node.duration - covered, 0.0)


def _iter_nodes(roots: Sequence[_Node]) -> Iterator[_Node]:
    """Depth-first, pre-order walk over a forest."""
    stack: List[_Node] = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# ----------------------------------------------------------------------
# the engines
def _critical_path(root: _Node) -> List[Dict[str, Any]]:
    """Longest-child chain from the root: the blocking spine of the run."""
    path: List[Dict[str, Any]] = []
    node, depth = root, 0
    while node is not None:
        path.append(
            {
                "name": node.name,
                "start_s": node.start,
                "duration_s": node.duration,
                "self_s": _self_seconds(node),
                "depth": depth,
            }
        )
        node = max(node.children, key=lambda c: c.duration, default=None)
        depth += 1
    return path


def _unconverged_spans(roots: Sequence[_Node]) -> Dict[str, List[str]]:
    """Span name → list of solver names that failed to converge there."""
    out: Dict[str, List[str]] = {}
    for node in _iter_nodes(roots):
        solvers = [
            t.solver for t in traces_from_attrs(node.attrs) if t.converged is False
        ]
        if node.attrs.get("converged") is False:
            solvers.append(str(node.attrs.get("solver", node.name)))
        if solvers:
            out.setdefault(node.name, []).extend(solvers)
    return out


@dataclass
class AnalysisReport:
    """Everything :func:`analyze_trace` extracts from one trace.

    :meth:`to_dict` is the CLI's ``--json`` output (checked by
    :func:`validate_analysis`); :meth:`render` is the human-readable
    form.
    """

    wall_s: float = 0.0
    n_spans: int = 0
    coverage: float = 0.0  #: Σ self over every span / wall clock
    stages: List[Dict[str, Any]] = field(default_factory=list)
    critical_path: List[Dict[str, Any]] = field(default_factory=list)
    targets: List[Dict[str, Any]] = field(default_factory=list)
    convergence: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the strict analysis document)."""
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "n_spans": self.n_spans,
            "coverage": self.coverage,
            "stages": [dict(s) for s in self.stages],
            "critical_path": [dict(s) for s in self.critical_path],
            "targets": [dict(t) for t in self.targets],
            "convergence": [dict(c) for c in self.convergence],
        }

    def render(self, top: int = 10) -> str:
        """Human-readable report (what the CLI prints without --json)."""
        lines = [
            f"trace: {self.n_spans} spans over {self.wall_s:.3f}s wall "
            f"(self-time coverage {self.coverage:.0%})",
            "",
            "critical path:",
        ]
        for entry in self.critical_path:
            lines.append(
                "  " * (entry["depth"] + 1)
                + f"{entry['name']}  {entry['duration_s']:.3f}s "
                + f"(self {entry['self_s']:.3f}s)"
            )
        lines += ["", f"optimization targets (top {min(top, len(self.targets))}):"]
        for target in self.targets[:top]:
            notes = f"  [{'; '.join(target['reasons'])}]" if target["reasons"] else ""
            lines.append(
                f"  #{target['rank']} {target['name']}: "
                f"self {target['self_s']:.3f}s "
                f"({target['pct_of_wall']:.1f}% of wall){notes}"
            )
        if self.convergence:
            lines += ["", f"convergence traces ({len(self.convergence)}):"]
            by_solver: Dict[str, List[Dict]] = {}
            for entry in self.convergence:
                by_solver.setdefault(entry["trace"]["solver"], []).append(entry)
            for solver, entries in sorted(by_solver.items()):
                bad = sum(
                    1 for e in entries if e["trace"].get("converged") is False
                )
                suffix = f", {bad} UNCONVERGED" if bad else ""
                lines.append(f"  {solver}: {len(entries)} runs{suffix}")
        return "\n".join(lines)


def analyze_trace(trace: Any, top: int = 10) -> AnalysisReport:
    """Analyse a span forest into an :class:`AnalysisReport`.

    Parameters
    ----------
    trace:
        A live :class:`repro.obs.trace.Tracer`, the nested-JSON dict of
        :meth:`Tracer.to_dict`, a Chrome trace document
        (:meth:`Tracer.to_chrome_trace`, one lane per ``(pid, tid)``),
        or a bare Chrome event list.
    top:
        Number of ranked optimization targets to keep.
    """
    forest = _to_forest(trace)
    if not forest:
        raise DataError("trace has no spans to analyze")

    wall_s = max(r.end for r in forest) - min(r.start for r in forest)
    if wall_s <= 0.0:
        wall_s = max(r.duration for r in forest)
    if wall_s <= 0.0:
        raise DataError("trace spans have zero extent; nothing to analyze")

    all_nodes = list(_iter_nodes(forest))

    # per-stage aggregation (by span name, across the whole forest)
    stage_acc: Dict[str, Dict[str, Any]] = {}
    for node in all_nodes:
        acc = stage_acc.setdefault(
            node.name,
            {"name": node.name, "count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0},
        )
        acc["count"] += 1
        acc["total_s"] += node.duration
        acc["self_s"] += _self_seconds(node)
        acc["max_s"] = max(acc["max_s"], node.duration)

    # the critical path runs down the longest root
    critical_path = _critical_path(max(forest, key=lambda r: r.duration))
    on_path = {entry["name"] for entry in critical_path}
    stages = sorted(stage_acc.values(), key=lambda s: -s["self_s"])
    for stage in stages:
        stage["pct_of_wall"] = 100.0 * stage["self_s"] / wall_s
        stage["on_critical_path"] = stage["name"] in on_path

    unconverged = _unconverged_spans(forest)
    targets: List[Dict[str, Any]] = []
    for rank, stage in enumerate(stages[:top], start=1):
        reasons: List[str] = []
        if stage["on_critical_path"]:
            reasons.append("on the critical path")
        if stage["name"] in unconverged:
            reasons.append(
                "unconverged: " + ", ".join(sorted(set(unconverged[stage["name"]])))
            )
        targets.append(
            {
                "rank": rank,
                "name": stage["name"],
                "self_s": stage["self_s"],
                "total_s": stage["total_s"],
                "count": stage["count"],
                "pct_of_wall": stage["pct_of_wall"],
                "reasons": reasons,
            }
        )

    convergence: List[Dict[str, Any]] = []
    for node in all_nodes:
        for trace_obj in traces_from_attrs(node.attrs):
            convergence.append({"span": node.name, "trace": trace_obj.to_dict()})

    coverage = sum(stage["self_s"] for stage in stages) / wall_s

    return AnalysisReport(
        wall_s=wall_s,
        n_spans=len(all_nodes),
        coverage=coverage,
        stages=stages,
        critical_path=critical_path,
        targets=targets,
        convergence=convergence,
    )


# ----------------------------------------------------------------------
# strict schema validation (the CI obs-smoke contract)
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(f"invalid analysis document: {message}")


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_analysis(payload: Any) -> Dict[str, Any]:
    """Strictly validate an :meth:`AnalysisReport.to_dict` document.

    Raises :class:`repro.exceptions.DataError` with a pointed message
    on the first violation; returns the payload unchanged when clean.
    CI runs this on the ``repro obs analyze --json`` output so a
    schema drift fails the build, not a downstream dashboard.
    """
    _require(isinstance(payload, dict), "not a JSON object")
    _require(
        payload.get("schema_version") == ANALYSIS_SCHEMA_VERSION,
        f"schema_version must be {ANALYSIS_SCHEMA_VERSION}, "
        f"got {payload.get('schema_version')!r}",
    )
    for key in (
        "wall_s",
        "n_spans",
        "coverage",
        "stages",
        "critical_path",
        "targets",
        "convergence",
    ):
        _require(key in payload, f"missing key {key!r}")
    _require(_is_num(payload["wall_s"]) and payload["wall_s"] > 0, "wall_s must be > 0")
    _require(
        isinstance(payload["n_spans"], int) and payload["n_spans"] >= 1,
        "n_spans must be a positive integer",
    )
    _require(_is_num(payload["coverage"]) and payload["coverage"] >= 0, "bad coverage")

    stages = payload["stages"]
    _require(isinstance(stages, list) and stages, "stages must be a non-empty list")
    for stage in stages:
        _require(isinstance(stage, dict), "stage entries must be objects")
        _require(isinstance(stage.get("name"), str) and stage["name"], "stage name")
        _require(
            isinstance(stage.get("count"), int) and stage["count"] >= 1,
            f"stage {stage.get('name')!r} count",
        )
        for num_key in ("total_s", "self_s", "max_s", "pct_of_wall"):
            _require(
                _is_num(stage.get(num_key)) and stage[num_key] >= 0,
                f"stage {stage['name']!r} {num_key}",
            )
        _require(
            isinstance(stage.get("on_critical_path"), bool),
            f"stage {stage['name']!r} on_critical_path",
        )

    path = payload["critical_path"]
    _require(isinstance(path, list) and path, "critical_path must be non-empty")
    for i, entry in enumerate(path):
        _require(isinstance(entry, dict), "critical_path entries must be objects")
        _require(isinstance(entry.get("name"), str), "critical_path entry name")
        _require(entry.get("depth") == i, "critical_path depths must be 0,1,2,...")
        for num_key in ("start_s", "duration_s", "self_s"):
            _require(
                _is_num(entry.get(num_key)) and entry[num_key] >= 0,
                f"critical_path[{i}] {num_key}",
            )

    targets = payload["targets"]
    _require(isinstance(targets, list) and targets, "targets must be non-empty")
    for i, target in enumerate(targets, start=1):
        _require(isinstance(target, dict), "target entries must be objects")
        _require(target.get("rank") == i, "target ranks must be 1,2,3,...")
        _require(isinstance(target.get("name"), str), "target name")
        _require(
            isinstance(target.get("reasons"), list)
            and all(isinstance(r, str) for r in target["reasons"]),
            f"target {target.get('name')!r} reasons",
        )
        for num_key in ("self_s", "total_s", "pct_of_wall"):
            _require(_is_num(target.get(num_key)), f"target {target.get('name')!r} {num_key}")

    _require(isinstance(payload["convergence"], list), "convergence must be a list")
    for entry in payload["convergence"]:
        _require(isinstance(entry, dict), "convergence entries must be objects")
        _require(isinstance(entry.get("span"), str), "convergence entry span")
        try:
            ConvergenceTrace.from_dict(entry.get("trace"))
        except (ValueError, TypeError) as exc:
            raise DataError(f"invalid analysis document: bad convergence trace: {exc}")
    return payload
