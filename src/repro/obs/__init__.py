"""Observability for the partitioning pipeline.

The paper's Table 3 is a per-module runtime breakdown; reproducing —
and then scaling — it requires the pipeline to self-report where time
and work go. This package provides the four pillars:

* :mod:`repro.obs.trace` — hierarchical span tracing (`Span`/`Tracer`)
  with nested-JSON and Chrome trace-event exports (open them in
  Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.metrics` — a process-wide metrics registry
  (counters, gauges, histograms) recording algorithm-level facts such
  as kappa candidates scanned, k-means iterations, supernode counts
  and refinement moves;
* :mod:`repro.obs.logs` — structured logging on top of stdlib
  :mod:`logging` with a run-scoped context (run id, dataset, scheme);
* :mod:`repro.obs.manifest` — reproducibility manifests (config,
  seed, package versions, platform, git SHA, timestamp, argv and
  every ``REPRO_*`` environment knob).

:class:`repro.obs.ObsContext` bundles all four for one pipeline run::

    from repro.obs import ObsContext

    obs = ObsContext(dataset="D1", scheme="ASG")
    framework = SpatialPartitioningFramework(k=6, seed=7, obs=obs)
    result = framework.partition(network, densities)
    obs.write_trace("trace.json")      # Chrome trace-event format
    obs.write_metrics("metrics.json")  # counters/gauges/histograms

Everything is contextvar-scoped: instrumentation helpers sprinkled in
the hot paths (``incr``, ``set_gauge``, ``observe``, span-aware
``ModuleTimer``) resolve the active tracer/registry per call and are a
single dictionary-free lookup — effectively free — when no
observability session is active.

On top of the per-run pillars sits the continuous-monitoring layer:

* :mod:`repro.obs.bench` — append-only benchmark history
  (``benchmarks/results/history.jsonl``) with robust regression
  gating (``repro-partition bench compare``);
* :mod:`repro.obs.export` — Prometheus text-format rendering and
  parsing plus latency quantiles; ``repro serve`` publishes it on
  ``/metrics``;
* :mod:`repro.obs.slo` — declarative availability/latency objectives
  with multi-window error-budget burn rates (``slo.*`` gauges, the
  server's ``/slo`` endpoint, ``repro obs slo``).

And the analysis layer, which *reads* what the other pillars record:

* :mod:`repro.obs.analyze` — critical-path extraction, per-stage
  self/total time, parallel slack with an Amdahl ceiling, and a ranked
  optimization-target report over any trace export
  (``repro-partition obs analyze``);
* :mod:`repro.obs.convergence` — per-iteration solver telemetry
  (:class:`ConvergenceTrace`) attached to spans by the
  k-means / boundary-refinement kernels and summarised by
  ``obs analyze``.

For a function-level CPU breakdown use the stdlib profiler:
``python -m cProfile -o run.prof -m repro partition D1 -k 6``.
"""

from repro.obs.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    analyze_trace,
    validate_analysis,
)
from repro.obs.convergence import (
    CONVERGENCE_SCHEMA_VERSION,
    ConvergenceTrace,
    attach_convergence,
    convergence_enabled,
    convergence_wanted,
    traces_from_attrs,
)
from repro.obs.bench import (
    append_history,
    compare_latest,
    load_history,
    machine_fingerprint,
)
from repro.obs.context import ObsContext, observe_run
from repro.obs.export import (
    histogram_quantile,
    parse_prometheus,
    quantile_from_latencies,
    quantiles_from_latencies,
    render_prometheus,
)
from repro.obs.logs import configure_logging, get_logger, log_context
from repro.obs.slo import (
    SLOAccumulator,
    SLObjective,
    SLOTracker,
    default_objectives,
)
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, run_manifest
from repro.obs.metrics import (
    MetricsRegistry,
    current_registry,
    incr,
    metrics_enabled,
    observe,
    sample_process_gauges,
    set_gauge,
    use_registry,
)
from repro.obs.trace import (
    Span,
    Tracer,
    activate_tracer,
    current_tracer,
    make_traceparent,
    parse_traceparent,
    traced,
    validate_chrome_trace,
)

__all__ = [
    "ObsContext",
    "observe_run",
    # trace analytics
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisReport",
    "analyze_trace",
    "validate_analysis",
    "CONVERGENCE_SCHEMA_VERSION",
    "ConvergenceTrace",
    "attach_convergence",
    "convergence_enabled",
    "convergence_wanted",
    "traces_from_attrs",
    # continuous monitoring layer
    "append_history",
    "load_history",
    "compare_latest",
    "machine_fingerprint",
    "render_prometheus",
    "parse_prometheus",
    "histogram_quantile",
    "quantile_from_latencies",
    "quantiles_from_latencies",
    # SLOs
    "SLObjective",
    "SLOTracker",
    "SLOAccumulator",
    "default_objectives",
    "Span",
    "Tracer",
    "activate_tracer",
    "current_tracer",
    "make_traceparent",
    "parse_traceparent",
    "traced",
    "validate_chrome_trace",
    "MetricsRegistry",
    "current_registry",
    "use_registry",
    "metrics_enabled",
    "incr",
    "set_gauge",
    "observe",
    "sample_process_gauges",
    "configure_logging",
    "get_logger",
    "log_context",
    "run_manifest",
    "MANIFEST_SCHEMA_VERSION",
]
