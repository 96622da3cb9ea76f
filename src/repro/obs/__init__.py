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
  self/total time and a ranked optimization-target report over any
  trace export (``repro-partition obs analyze``);
* :mod:`repro.obs.convergence` — per-iteration solver telemetry
  (:class:`ConvergenceTrace`) attached to spans by the
  k-means / boundary-refinement kernels and summarised by
  ``obs analyze``.

Only :class:`ObsContext` and :func:`observe_run` are re-exported here;
every other name is imported from its submodule (one import path per
name), so ``import repro`` loads neither the analysis, the benchmark
history nor the SLO layer.

For a function-level CPU breakdown use the stdlib profiler:
``python -m cProfile -o run.prof -m repro partition D1 -k 6``.
"""

from repro.obs.context import ObsContext, observe_run

__all__ = ["ObsContext", "observe_run"]
