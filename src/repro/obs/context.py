"""One object bundling the observability of a single pipeline run.

:class:`ObsContext` owns a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a run identity
(run id, dataset, scheme). :meth:`ObsContext.activate` installs all
three ambiently (tracer + metrics contextvars, logging run-context)
for the duration of a ``with`` block; the framework does this around
every observed run, and ad-hoc callers (benchmarks, notebooks) can do
the same around a bare :func:`repro.pipeline.schemes.run_scheme` call.

Exports:

* :meth:`write_trace` — Chrome trace-event JSON (open in Perfetto);
* :meth:`write_metrics` — metrics snapshot + run manifest;
* :meth:`trace_tree` / :meth:`metrics_dict` / :meth:`manifest` — the
  same data as plain dicts.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.logs import log_context
from repro.obs.manifest import new_run_id, run_manifest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, activate_tracer

__all__ = ["ObsContext", "observe_run"]

PathLike = Union[str, Path]

#: Schema version of the metrics dump written by write_metrics.
METRICS_DUMP_SCHEMA_VERSION = 1


class ObsContext:
    """Tracing + metrics + log context + manifest for one run.

    Parameters
    ----------
    run_id:
        Unique identifier tying the exports together; generated when
        omitted.
    dataset, scheme:
        Optional run identity, stamped onto log records and the
        manifest.
    metadata:
        Free-form extra fields carried into the exports.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        dataset: Optional[str] = None,
        scheme: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.dataset = dataset
        self.scheme = scheme
        self.metadata = dict(metadata or {})
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    @contextmanager
    def activate(self) -> Iterator["ObsContext"]:
        """Make this context ambient (tracer, metrics, log fields)."""
        with activate_tracer(self.tracer), use_registry(self.metrics), log_context(
            run_id=self.run_id, dataset=self.dataset, scheme=self.scheme
        ):
            yield self

    # ------------------------------------------------------------------
    # exports
    def manifest(
        self, config: Optional[Dict[str, Any]] = None, seed: Any = None
    ) -> Dict[str, Any]:
        """Run manifest stamped with this context's identity."""
        extra: Dict[str, Any] = dict(self.metadata)
        if self.dataset is not None:
            extra["dataset"] = self.dataset
        if self.scheme is not None:
            extra["scheme"] = self.scheme
        return run_manifest(config=config, seed=seed, run_id=self.run_id, extra=extra)

    def trace_tree(self) -> Dict[str, Any]:
        """Nested-JSON span summary."""
        return self.tracer.to_dict()

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event document (Perfetto-loadable)."""
        metadata = {"run_id": self.run_id, **self.metadata}
        if self.dataset is not None:
            metadata["dataset"] = self.dataset
        if self.scheme is not None:
            metadata["scheme"] = self.scheme
        return self.tracer.to_chrome_trace(metadata=metadata)

    def metrics_dict(self) -> Dict[str, Any]:
        """Snapshot of the counters/gauges/histograms recorded so far."""
        return self.metrics.to_dict()

    def write_trace(self, path: PathLike) -> Path:
        """Write the Chrome trace-event JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=2)
        return path

    def write_metrics(
        self,
        path: PathLike,
        config: Optional[Dict[str, Any]] = None,
        seed: Any = None,
    ) -> Path:
        """Write the metrics snapshot (with manifest) as JSON to ``path``."""
        payload = {
            "schema_version": METRICS_DUMP_SCHEMA_VERSION,
            "run_id": self.run_id,
            "manifest": self.manifest(config=config, seed=seed),
            "metrics": self.metrics_dict(),
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return path

    def __repr__(self) -> str:
        return (
            f"ObsContext(run_id={self.run_id!r}, dataset={self.dataset!r}, "
            f"scheme={self.scheme!r})"
        )


@contextmanager
def observe_run(
    dataset: Optional[str] = None,
    scheme: Optional[str] = None,
    **metadata: Any,
) -> Iterator[ObsContext]:
    """Create and activate an :class:`ObsContext` in one step.

    >>> from repro.obs import observe_run
    >>> with observe_run(dataset="D1", scheme="ASG") as obs:
    ...     pass  # run the pipeline here
    >>> obs.run_id is not None
    True
    """
    obs = ObsContext(dataset=dataset, scheme=scheme, metadata=metadata or None)
    with obs.activate():
        yield obs
