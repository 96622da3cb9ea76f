"""Trace analytics: critical paths, parallel slack, optimization targets.

The flight recorder (:mod:`repro.obs.report`) *renders* a trace; this
module *reads* one. Given a span forest — a live
:class:`repro.obs.trace.Tracer`, its nested-JSON export, or a Chrome
trace-event document (including merged multi-process traces grafted by
:meth:`Tracer.graft`) — :func:`analyze_trace` produces an
:class:`AnalysisReport` answering the questions a timeline forces you
to eyeball:

* **critical path** — the chain of longest spans from the root down,
  i.e. the wall-clock you would have to shorten to make the run faster;
* **self vs total time per stage** — span durations aggregated by
  name, with self time = duration minus the union of child intervals
  (robust to overlapping parallel children), so for a serial trace the
  per-stage self times sum back to the wall clock;
* **parallel slack** — for every region where ≥2 spans overlap
  (parallel map children, worker-thread roots, grafted worker
  processes), the achieved vs ideal speedup and an Amdahl ceiling from
  the serial fraction of the run;
* **optimization targets** — stages ranked by self time, annotated
  with parallel efficiency and solver-convergence caveats;
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
ANALYSIS_SCHEMA_VERSION = 1

#: Two overlapping spans only count as a parallel region when their
#: combined busy time exceeds the window by this factor — guards
#: against float jitter on back-to-back serial children.
_OVERLAP_FACTOR = 1.02


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

    Lanes are ``(pid, tid)`` pairs, exactly as the flight recorder's
    timeline draws them; within a lane, containment by timestamp
    reconstructs the tree (events sorted by start, longest first on
    ties, with a stack of still-open ancestors).
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

    The union (not the sum) makes self time well-defined even when
    children overlap — a parallel map's children cover the same wall
    clock once, not once per worker.
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


def _iter_nodes(roots: Sequence[_Node]) -> Iterator[Tuple[_Node, int]]:
    """Depth-first ``(node, depth)`` over a forest."""
    stack: List[Tuple[_Node, int]] = [(root, 0) for root in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in reversed(node.children):
            stack.append((child, depth + 1))


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


def _overlap_groups(children: Sequence[_Node]) -> List[List[_Node]]:
    """Chains of transitively-overlapping children, longest-first."""
    groups: List[List[_Node]] = []
    group: List[_Node] = []
    group_end = float("-inf")
    for child in sorted(children, key=lambda c: c.start):
        if group and child.start < group_end - 1e-9:
            group.append(child)
            group_end = max(group_end, child.end)
        else:
            if len(group) >= 2:
                groups.append(group)
            group = [child]
            group_end = child.end
    if len(group) >= 2:
        groups.append(group)
    return groups


def _region_stats(region: str, members: Sequence[_Node]) -> Optional[Dict[str, Any]]:
    """Speedup bookkeeping of one set of concurrently-running spans."""
    busy = sum(m.duration for m in members)
    window = max(m.end for m in members) - min(m.start for m in members)
    if window <= 0.0 or busy <= window * _OVERLAP_FACTOR:
        return None  # back-to-back serial spans, not a parallel region
    longest = max(m.duration for m in members)
    achieved = busy / window
    ideal = busy / longest if longest > 0 else achieved
    return {
        "region": region,
        "n_lanes": len(members),
        "busy_s": busy,
        "window_s": window,
        "window_start_s": min(m.start for m in members),
        "achieved_speedup": achieved,
        "ideal_speedup": ideal,
        "efficiency": achieved / ideal if ideal > 0 else 1.0,
    }


def _innermost_host(roots: Sequence[_Node], guest: _Node) -> Optional[_Node]:
    """Deepest main-tree node whose interval contains ``guest``'s midpoint."""
    mid = guest.start + guest.duration / 2.0
    best: Optional[_Node] = None
    best_depth = -1
    for node, depth in _iter_nodes(roots):
        if node.start - 1e-9 <= mid <= node.end + 1e-9 and depth > best_depth:
            best, best_depth = node, depth
    return best


def _parallel_regions(
    main_roots: Sequence[_Node], detached: Sequence[_Node]
) -> List[Dict[str, Any]]:
    """Every region of the trace where ≥2 spans ran concurrently.

    Two shapes occur in practice: overlapping *children* of one span
    (in-process parallel maps) and *detached roots* — worker-thread
    spans that the tracer records as separate roots — which are
    attributed to the innermost main-tree span covering them.
    """
    regions: List[Dict[str, Any]] = []
    for node, __ in _iter_nodes(main_roots):
        for group in _overlap_groups(node.children):
            stats = _region_stats(node.name, group)
            if stats is not None:
                regions.append(stats)
    by_host: Dict[int, Tuple[str, List[_Node]]] = {}
    for guest in detached:
        host = _innermost_host(main_roots, guest)
        key = id(host) if host is not None else 0
        name = host.name if host is not None else "(detached)"
        by_host.setdefault(key, (name, []))[1].append(guest)
    for name, members in by_host.values():
        group = list(members)
        if len(group) < 2:
            # a single worker lane still overlaps its host: measure the
            # pair so thread-pool runs with one worker stay visible
            host = _innermost_host(main_roots, group[0])
            if host is None:
                continue
            group = group + [host]
        stats = _region_stats(name, group)
        if stats is not None:
            regions.append(stats)
    regions.sort(key=lambda r: -r["window_s"])
    return regions


def _amdahl(wall_s: float, regions: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Serial fraction and the speedup ceiling it implies (Amdahl)."""
    parallel_s = sum(
        end - start
        for start, end in _merge_intervals(
            [
                (r["window_start_s"], r["window_start_s"] + r["window_s"])
                for r in regions
            ]
        )
    )
    parallel_s = min(parallel_s, wall_s)
    serial_s = max(wall_s - parallel_s, 0.0)
    serial_fraction = serial_s / wall_s if wall_s > 0 else 1.0
    return {
        "parallel_s": parallel_s,
        "serial_s": serial_s,
        "serial_fraction": serial_fraction,
        # None = unbounded (fully parallel trace)
        "ceiling": (1.0 / serial_fraction) if serial_fraction > 0 else None,
    }


def _unconverged_spans(roots: Sequence[_Node]) -> Dict[str, List[str]]:
    """Span name → list of solver names that failed to converge there."""
    out: Dict[str, List[str]] = {}
    for node, __ in _iter_nodes(roots):
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

    Serialises losslessly through :meth:`to_dict` / :meth:`from_dict`
    (the CLI's ``--json`` output is exactly :meth:`to_dict`);
    :meth:`render` is the human-readable form.
    """

    wall_s: float = 0.0
    n_spans: int = 0
    coverage: float = 0.0  #: Σ self over the main tree / wall clock
    stages: List[Dict[str, Any]] = field(default_factory=list)
    critical_path: List[Dict[str, Any]] = field(default_factory=list)
    parallel: List[Dict[str, Any]] = field(default_factory=list)
    amdahl: Dict[str, Any] = field(default_factory=dict)
    targets: List[Dict[str, Any]] = field(default_factory=list)
    convergence: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "n_spans": self.n_spans,
            "coverage": self.coverage,
            "stages": [dict(s) for s in self.stages],
            "critical_path": [dict(s) for s in self.critical_path],
            "parallel": [dict(r) for r in self.parallel],
            "amdahl": dict(self.amdahl),
            "targets": [dict(t) for t in self.targets],
            "convergence": [dict(c) for c in self.convergence],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AnalysisReport":
        """Rebuild a report from its :meth:`to_dict` form (validating)."""
        validate_analysis(payload)
        return cls(
            wall_s=float(payload["wall_s"]),
            n_spans=int(payload["n_spans"]),
            coverage=float(payload["coverage"]),
            stages=[dict(s) for s in payload["stages"]],
            critical_path=[dict(s) for s in payload["critical_path"]],
            parallel=[dict(r) for r in payload["parallel"]],
            amdahl=dict(payload["amdahl"]),
            targets=[dict(t) for t in payload["targets"]],
            convergence=[dict(c) for c in payload["convergence"]],
        )

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
        if self.parallel:
            lines += ["", "parallel regions:"]
            for region in self.parallel:
                lines.append(
                    f"  {region['region']}: {region['n_lanes']} lanes, "
                    f"{region['achieved_speedup']:.2f}x achieved of "
                    f"{region['ideal_speedup']:.2f}x ideal "
                    f"(efficiency {region['efficiency']:.0%})"
                )
            ceiling = self.amdahl.get("ceiling")
            lines.append(
                f"  amdahl: serial fraction "
                f"{self.amdahl.get('serial_fraction', 1.0):.0%}"
                + (f", speedup ceiling {ceiling:.1f}x" if ceiling else "")
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
        (:meth:`Tracer.to_chrome_trace`, merged multi-process traces
        included), or a bare Chrome event list.
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

    # main tree = the longest root; every other root is a detached lane
    # (worker threads, grafted worker processes whose parent link was
    # severed by the transport)
    main_root = max(forest, key=lambda r: r.duration)
    detached = [r for r in forest if r is not main_root]
    main_roots = [main_root]

    all_nodes = [node for node, __ in _iter_nodes(forest)]
    main_nodes = [node for node, __ in _iter_nodes(main_roots)]

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

    critical_path = _critical_path(main_root)
    on_path = {entry["name"] for entry in critical_path}
    stages = sorted(stage_acc.values(), key=lambda s: -s["self_s"])
    for stage in stages:
        stage["pct_of_wall"] = 100.0 * stage["self_s"] / wall_s
        stage["on_critical_path"] = stage["name"] in on_path

    regions = _parallel_regions(main_roots, detached)
    efficiency_by_region: Dict[str, float] = {}
    for region in regions:
        efficiency_by_region.setdefault(region["region"], region["efficiency"])

    unconverged = _unconverged_spans(forest)
    targets: List[Dict[str, Any]] = []
    for rank, stage in enumerate(stages[:top], start=1):
        reasons: List[str] = []
        if stage["on_critical_path"]:
            reasons.append("on the critical path")
        if stage["name"] in efficiency_by_region:
            reasons.append(
                f"parallel efficiency {efficiency_by_region[stage['name']]:.0%}"
            )
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

    coverage = sum(_self_seconds(node) for node in main_nodes) / wall_s

    return AnalysisReport(
        wall_s=wall_s,
        n_spans=len(all_nodes),
        coverage=coverage,
        stages=stages,
        critical_path=critical_path,
        parallel=regions,
        amdahl=_amdahl(wall_s, regions),
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
        "parallel",
        "amdahl",
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

    _require(isinstance(payload["parallel"], list), "parallel must be a list")
    for region in payload["parallel"]:
        _require(isinstance(region, dict), "parallel entries must be objects")
        _require(isinstance(region.get("region"), str), "parallel region name")
        _require(
            isinstance(region.get("n_lanes"), int) and region["n_lanes"] >= 2,
            "parallel n_lanes must be >= 2",
        )
        for num_key in (
            "busy_s",
            "window_s",
            "window_start_s",
            "achieved_speedup",
            "ideal_speedup",
            "efficiency",
        ):
            _require(_is_num(region.get(num_key)), f"parallel region {num_key}")

    amdahl = payload["amdahl"]
    _require(isinstance(amdahl, dict), "amdahl must be an object")
    _require(
        _is_num(amdahl.get("serial_fraction"))
        and 0.0 <= amdahl["serial_fraction"] <= 1.0 + 1e-9,
        "amdahl serial_fraction must be in [0, 1]",
    )
    ceiling = amdahl.get("ceiling")
    _require(
        ceiling is None or (_is_num(ceiling) and ceiling >= 1.0 - 1e-9),
        "amdahl ceiling must be None or >= 1",
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
