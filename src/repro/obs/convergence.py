"""Solver convergence telemetry: per-iteration series attached to spans.

The iterative kernels of the pipeline — the Lloyd iterations of both
k-means variants and the boundary-refinement sweeps — each converge
(or fail to) over a series of iterations. A counter
("kmeans1d.iterations") says how many; it cannot say *how*: whether
the residual stalled, the inertia plateaued early, or the last sweep
still moved half the boundary.

:class:`ConvergenceTrace` is the lightweight record of that *how*: a
solver name, one or more named per-iteration series (residuals,
inertia, moves ...), a converged flag and free-form metadata.
Instrumented solvers build one per run and hand it to
:func:`attach_convergence`, which files it on the innermost open span
of the ambient tracer — from where it rides the normal trace exports
(nested JSON and Chrome trace-event ``args``) into
``repro obs analyze``.

Cost model (the obs-overhead bench gates this):

* **disabled** (no active tracer — a metrics registry alone has no
  span to attach to): the instrumented solver performs one
  :func:`convergence_enabled` check — a contextvar read — and skips
  everything else;
* **enabled**: one small object per solver run plus one float append
  per iteration. Hot callers (the kappa scan runs thousands of 1-D
  k-means fits) are bounded by :data:`MAX_TRACES_PER_SPAN` *before
  any recording happens*: solvers gate trace construction on
  :func:`convergence_wanted`, which returns False once the innermost
  open span is saturated — so the span keeps its first few traces,
  counts the rest in a ``convergence_dropped`` attribute, and the
  thousands of skipped runs cost one capacity check each.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.trace import Span, current_tracer

__all__ = [
    "CONVERGENCE_SCHEMA_VERSION",
    "MAX_TRACES_PER_SPAN",
    "ConvergenceTrace",
    "convergence_enabled",
    "convergence_wanted",
    "attach_convergence",
    "traces_from_attrs",
]

#: Bump when the serialized ConvergenceTrace layout changes incompatibly.
CONVERGENCE_SCHEMA_VERSION = 1

#: A span keeps at most this many attached traces; the rest only bump
#: its ``convergence_dropped`` counter. Guards the kappa scan, which
#: fits thousands of 1-D k-means under a single ``module2.scan`` span.
MAX_TRACES_PER_SPAN = 8


class ConvergenceTrace:
    """Per-iteration telemetry of one iterative-solver run.

    Attributes
    ----------
    solver:
        Solver identifier (``"kmeans_1d"``, ``"kmeans_nd"``,
        ``"boundary_refine"`` ...).
    series:
        Named per-iteration value lists (``{"residual": [...], ...}``);
        series may have different lengths when a solver records some
        quantities less often than others.
    converged:
        Whether the solver met its convergence criterion (None when
        the notion does not apply, e.g. a fixed-budget Krylov sweep).
    meta:
        Free-form scalar facts (problem size, tolerance, restart
        index ...).
    """

    __slots__ = ("solver", "series", "converged", "meta")

    def __init__(
        self,
        solver: str,
        series: Optional[Dict[str, List[float]]] = None,
        converged: Optional[bool] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.solver = str(solver)
        self.series: Dict[str, List[float]] = (
            {str(k): [float(x) for x in v] for k, v in series.items()}
            if series
            else {}
        )
        self.converged = converged
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    @property
    def n_iter(self) -> int:
        """Length of the longest recorded series."""
        return max((len(v) for v in self.series.values()), default=0)

    def record(self, **values: float) -> None:
        """Append one iteration's values, one keyword per series."""
        for name, value in values.items():
            self.series.setdefault(name, []).append(float(value))

    def finish(self, converged: Optional[bool] = None, **meta: Any) -> "ConvergenceTrace":
        """Set the converged flag / extra metadata at solver exit."""
        if converged is not None:
            self.converged = bool(converged)
        if meta:
            self.meta.update(meta)
        return self

    # ------------------------------------------------------------------
    # serialization (JSON round-trip)
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "schema_version": CONVERGENCE_SCHEMA_VERSION,
            "solver": self.solver,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "series": {k: list(v) for k, v in self.series.items()},
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConvergenceTrace":
        """Rebuild a trace from its :meth:`to_dict` form."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"convergence payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != CONVERGENCE_SCHEMA_VERSION:
            raise ValueError(
                f"convergence payload has schema_version {version!r}, "
                f"expected {CONVERGENCE_SCHEMA_VERSION}"
            )
        series = payload.get("series") or {}
        if not isinstance(series, dict):
            raise ValueError("convergence series must be an object")
        converged = payload.get("converged")
        if converged is not None:
            converged = bool(converged)
        return cls(
            solver=payload.get("solver", "?"),
            series={str(k): [float(x) for x in v] for k, v in series.items()},
            converged=converged,
            meta=dict(payload.get("meta") or {}),
        )

    def __repr__(self) -> str:
        return (
            f"ConvergenceTrace({self.solver!r}, n_iter={self.n_iter}, "
            f"converged={self.converged})"
        )


def convergence_enabled() -> bool:
    """Whether a tracer is active, i.e. whether traces can be attached.

    Instrumented solvers call this once per run; when it returns False
    they build no trace and append nothing — the disabled cost is the
    contextvar read below. A metrics registry alone does not enable
    convergence telemetry: traces ride spans, and it opens none.
    """
    return current_tracer() is not None


def _span_with_room(span: Optional[Span] = None) -> Optional[Span]:
    """``span`` (default: the innermost open span of the ambient
    tracer) when it can take one more trace, else None.

    A span holds at most :data:`MAX_TRACES_PER_SPAN` traces; each
    refusal by a full span bumps its ``convergence_dropped`` counter.
    """
    if span is None:
        tracer = current_tracer()
        span = tracer.current if tracer is not None else None
        if span is None:
            return None
    attached = span.attrs.get("convergence")
    if attached is not None and len(attached) >= MAX_TRACES_PER_SPAN:
        span.attrs["convergence_dropped"] = (
            int(span.attrs.get("convergence_dropped", 0)) + 1
        )
        return None
    return span


def convergence_wanted() -> bool:
    """Whether a trace built now would be attached.

    Hot solvers (the kappa scan fits thousands of 1-D k-means under a
    single span) call this *before* building a trace. It is False
    without an open span of an active tracer, and once the innermost
    open span is saturated — bumping the span's
    ``convergence_dropped`` counter exactly as a late
    :func:`attach_convergence` would — so a saturated span costs one
    capacity check per solver run instead of a full recording.
    """
    return _span_with_room() is not None


def attach_convergence(
    trace: ConvergenceTrace, span: Optional[Span] = None
) -> bool:
    """File ``trace`` on ``span`` or the innermost open span of the
    ambient tracer.

    The trace is stored (as its :meth:`ConvergenceTrace.to_dict` form)
    in the span's ``convergence`` attribute list, from where it rides
    both trace exports. A span keeps at most
    :data:`MAX_TRACES_PER_SPAN` traces; beyond that only its
    ``convergence_dropped`` counter grows. Returns True when the trace
    was stored, False when it was dropped or no span was open.
    """
    span = _span_with_room(span)
    if span is None:
        return False
    span.attrs.setdefault("convergence", []).append(trace.to_dict())
    return True


def traces_from_attrs(attrs: Optional[Dict[str, Any]]) -> List[ConvergenceTrace]:
    """Parse the ``convergence`` attribute of a span (dict form).

    Tolerant: entries that fail schema validation are skipped — a
    truncated or foreign trace file must not take the analyzer down.
    """
    out: List[ConvergenceTrace] = []
    if not attrs:
        return out
    entries = attrs.get("convergence")
    if not isinstance(entries, (list, tuple)):
        return out
    for entry in entries:
        try:
            out.append(ConvergenceTrace.from_dict(entry))
        except (ValueError, TypeError):
            continue
    return out
