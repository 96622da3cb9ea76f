"""Deterministic parallel mapping for independent work items.

The partitioning pipeline has a few embarrassingly parallel loops —
the per-kappa k-means fits of Algorithm 1's scan, the shortlist
counts or refits in :class:`repro.supergraph.SupergraphBuilder`, the
per-shard mining of :class:`repro.shard.ShardedSupergraphBuilder` —
whose items are completely independent. :func:`map_parallel` runs such
loops over a worker pool while guaranteeing **deterministic,
input-ordered results**: the output list always satisfies
``out[i] == fn(items[i])`` regardless of worker count or pool, so
parallelism can never change what the pipeline computes (only how
fast).

Worker-count resolution, in priority order:

1. the explicit ``workers`` argument;
2. the ``REPRO_NUM_WORKERS`` environment variable;
3. serial execution (``1``).

``0`` (argument or environment) means "use every core" —
``os.cpu_count()``.

The work picks the pool; there is no user-set mode:

* **loop** — a resolved count of 1, or fewer than 2 items: a plain
  loop in the calling thread, no executor at all;
* **threads** — no ``shard`` given: a
  :class:`~concurrent.futures.ThreadPoolExecutor`. The kappa fits and
  shortlist counts spend their time in numpy and scipy, which release
  the GIL, so threads win there with no pickling; the caller's ambient
  observability context (tracer / metrics / log fields are
  contextvars) propagates into every worker invocation;
* **processes** — a :class:`repro.util.shm.ShardContext` given: a
  :class:`~concurrent.futures.ProcessPoolExecutor`. Per-shard mining is
  pure-Python heavy and escapes the GIL this way; its large read-only
  inputs travel through the context's shared-memory blocks (attached
  zero-copy by every worker, read through
  :func:`repro.util.shm.active_shard`) instead of being pickled into
  every task. Workers run a pool initializer that re-establishes the
  observability context (stderr logging, the attached shard), then
  mirror whichever pillars the caller had active: metrics land in a
  worker-side registry whose per-item delta rides back with each
  result, spans open on a worker-side :class:`~repro.obs.trace.Tracer`
  whose serialized tree is grafted into the caller's trace
  (``pid``/``worker`` attributes, own Chrome-trace process lane), and —
  when a profiler is active — a worker-side sampler ships its stacks
  back for a single merged flame graph.

Process-pool workers must not open pools of their own: a function run
under a shard passes ``workers=1`` to anything it calls.
"""

from __future__ import annotations

import contextvars
import functools
import logging
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import ExitStack
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.obs.profile import ProfileConfig, Profiler, current_profiler
from repro.obs.trace import Tracer, activate_tracer, current_tracer
from repro.util import shm

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_NUM_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an effective worker count (>= 1).

    Parameters
    ----------
    workers:
        Explicit worker count; ``None`` falls back to the
        ``REPRO_NUM_WORKERS`` environment variable, and to ``1``
        (serial) when that is unset or empty. ``0`` — explicit or via
        the environment — means "one worker per core"
        (``os.cpu_count()``). Bools and non-integral numbers are
        rejected rather than truncated.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env:
            return 1
        workers = env  # type: ignore[assignment]
    if isinstance(workers, (bool, np.bool_)) or (
        isinstance(workers, numbers.Real) and not float(workers).is_integer()
    ):
        raise ReproError(f"worker count must be an integer, got {workers!r}")
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ReproError(f"worker count must be an integer, got {workers!r}") from None
    if count == 0:
        return os.cpu_count() or 1
    if count < 0:
        raise ReproError(f"worker count must be >= 0, got {count}")
    return count


def pool_kind(count: int, sharded: bool) -> str:
    """The pool :func:`map_parallel` runs ``count`` resolved workers on.

    ``"serial"`` (a plain loop) at one worker, otherwise ``"process"``
    for a map given a shard and ``"thread"`` for one without.
    """
    if count <= 1:
        return "serial"
    return "process" if sharded else "thread"


def map_parallel(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    shard: Optional[shm.ShardContext] = None,
) -> List[R]:
    """``[fn(item) for item in items]`` over a worker pool, order preserved.

    Parameters
    ----------
    fn:
        The per-item function. Must be picklable (module-level) when a
        ``shard`` is given; any callable works otherwise.
    items:
        The work items; consumed eagerly so the item count is known.
    workers:
        Worker count; see :func:`resolve_workers`. With the resolved
        count at 1 (or fewer than 2 items) the map is a plain loop in
        the calling thread.
    shard:
        Optional :class:`repro.util.shm.ShardContext` of named arrays
        ``fn`` reads through :func:`repro.util.shm.active_shard`.
        Giving one selects the process pool, with the arrays shared
        zero-copy via ``multiprocessing.shared_memory``; in the plain
        loop the originals are handed through untouched. Without one
        the map runs on threads. The caller owns the context's
        lifecycle (use a ``with`` block so the blocks are unlinked
        even on error).

    Returns
    -------
    list
        Results in input order — identical for every worker count and
        pool. The first exception raised by ``fn`` propagates to the
        caller.
    """
    work = list(items)
    count = min(resolve_workers(workers), max(len(work), 1))
    registry = current_registry()
    if registry is not None:
        registry.inc("parallel.maps")
        registry.inc("parallel.items", len(work))
        registry.set_gauge("parallel.workers", count)

    pool = pool_kind(count, shard is not None)
    if pool == "serial":
        if shard is not None:
            with shm.use_shard(shard):
                return [fn(item) for item in work]
        return [fn(item) for item in work]
    if pool == "thread":
        return _map_threaded(fn, work, count, registry)
    return _map_process(fn, work, count, registry, shard)


def _map_threaded(
    fn: Callable[[T], R], work: List[T], count: int, registry
) -> List[R]:
    """Thread-pool map with context propagation and utilization metrics."""
    # one context copy per item: each carries the caller's ambient
    # tracer/metrics/log-context into the worker thread (a Context can
    # only be entered once, hence per-item copies)
    contexts = [contextvars.copy_context() for __ in work]

    if registry is None:
        run = lambda ctx, item: ctx.run(fn, item)  # noqa: E731
    else:
        busy: List[float] = []  # list.append is atomic under the GIL

        def run(ctx, item):
            t0 = time.perf_counter()
            try:
                return ctx.run(fn, item)
            finally:
                elapsed = time.perf_counter() - t0
                busy.append(elapsed)
                registry.observe("parallel.item_seconds", elapsed)

    start = time.perf_counter()
    # the name prefix makes worker threads identifiable in sampling
    # profiles (repro.obs.profile groups stacks by thread name)
    with ThreadPoolExecutor(
        max_workers=count, thread_name_prefix="repro-worker"
    ) as pool:
        results = list(pool.map(run, contexts, work))
    if registry is not None:
        wall = time.perf_counter() - start
        # share of the pool's capacity spent inside fn during this map
        utilization = min(1.0, sum(busy) / (wall * count)) if wall > 0 else 1.0
        registry.set_gauge("parallel.utilization", utilization)
    return results


# ----------------------------------------------------------------------
# process backend
def _current_log_level() -> Optional[str]:
    """The repro root logger's effective level name, if standard."""
    level = logging.getLogger("repro").getEffectiveLevel()
    name = logging.getLevelName(level)
    return name.lower() if isinstance(name, str) and name.isalpha() else None


def _worker_init(descriptor: Dict[str, Any], log_level: Optional[str]) -> None:
    """Pool initializer: re-establish the observability context.

    Runs once per worker process. Installs a stderr logging handler
    unconditionally — worker diagnostics must never land on stdout,
    which the CLI reserves for ``--json`` payloads — re-applying the
    parent's log level when it is a standard one (inherited under
    ``fork`` but lost under ``spawn``), clears any ambient
    observability state inherited through ``fork`` (a forked worker's
    contextvars point at dead copies of the parent's registry, tracer,
    profiler and shard — writes to them never ride back, and the stale
    shard would shadow the attached one), and attaches the
    shared-memory shard as the process-global ambient shard.
    """
    from repro.obs.logs import LOG_LEVELS, configure_logging
    from repro.obs.metrics import _ACTIVE_REGISTRY
    from repro.obs.profile import _ACTIVE_PROFILER
    from repro.obs.trace import _ACTIVE_TRACER

    _ACTIVE_REGISTRY.set(None)
    _ACTIVE_TRACER.set(None)
    _ACTIVE_PROFILER.set(None)
    shm._ACTIVE_SHARD.set(None)
    if log_level is not None and log_level in LOG_LEVELS:
        configure_logging(level=log_level)
    else:
        configure_logging(level="warning")
    shm.set_worker_shard(shm.ShardContext.attach(descriptor))


def _task_label(fn: Callable) -> str:
    """Span name for a worker task: ``worker:<underlying function>``."""
    base = fn
    while isinstance(base, functools.partial):
        base = base.func
    name = (
        getattr(base, "__qualname__", None)
        or getattr(base, "__name__", None)
        or type(base).__name__
    )
    return f"worker:{name}"


def _process_task(
    fn: Callable[[T], R], spec: Dict[str, Any], index: int, item: T
) -> Tuple[R, Dict[str, Any]]:
    """One process-pool task: run ``fn`` under worker-side observability.

    ``spec`` says which pillars the parent had active (metrics /
    tracing / profiling); matching worker-side collectors run for the
    task's duration and their output rides back in the returned
    payload — metrics snapshot, serialized span tree
    (:meth:`repro.obs.trace.Tracer.to_wire`) and profile samples
    (:meth:`repro.obs.profile.Profiler.worker_payload`) — so nothing
    recorded inside ``fn`` is lost at the interpreter boundary. The
    payload's wire formats are documented in ``docs/api.md``.
    """
    payload: Dict[str, Any] = {
        "pid": os.getpid(),
        "start_unix_s": time.time(),
    }
    t0 = time.perf_counter()
    registry = MetricsRegistry() if spec.get("metrics") else None
    tracer = Tracer() if spec.get("trace") else None
    profile_spec = spec.get("profile")
    profiler = None
    if profile_spec is not None:
        # registry stays None on purpose: the worker profiler must not
        # write profile.* gauges that would stomp the parent's on merge
        profiler = Profiler(
            ProfileConfig(
                cpu=True,
                hz=profile_spec["hz"],
                memory=profile_spec["memory"],
                max_stack_depth=profile_spec["max_stack_depth"],
            ),
            tracer=tracer,
        )
    with ExitStack() as stack:
        if registry is not None:
            stack.enter_context(use_registry(registry))
            shm.flush_pending_metrics(registry)
        if tracer is not None:
            stack.enter_context(activate_tracer(tracer))
        if profiler is not None:
            stack.enter_context(profiler)
        if tracer is not None:
            attrs: Dict[str, Any] = {"item": index}
            parent_span = spec.get("parent_span")
            if parent_span is not None:
                attrs["parent_span"] = parent_span["name"]
                attrs["parent_span_id"] = parent_span["id"]
            with tracer.span(_task_label(fn), **attrs):
                result = fn(item)
        else:
            result = fn(item)
    payload["elapsed_s"] = time.perf_counter() - t0
    if registry is not None:
        payload["metrics"] = registry.to_dict() if len(registry) else None
    if tracer is not None:
        payload["trace"] = tracer.to_wire()
    if profiler is not None:
        payload["profile"] = profiler.worker_payload()
    return result, payload


def _map_process(
    fn: Callable[[T], R],
    work: List[T],
    count: int,
    registry,
    shard: shm.ShardContext,
) -> List[R]:
    """Process-pool map: shared-memory inputs, observability merged back.

    Worker payloads are merged in input order: metric deltas into the
    caller's registry, span trees grafted into the ambient tracer
    (with ``pid``/``worker`` attributes), profile samples into the
    ambient profiler under ``pid:<pid>:<thread>`` lanes. Pool metrics
    (queue wait, startup, per-worker busy time, utilization) are
    recorded alongside.
    """
    serialize_t0 = time.perf_counter()
    descriptor = shard.share()
    serialize_s = time.perf_counter() - serialize_t0
    tracer = current_tracer()
    profiler = current_profiler()
    spec: Dict[str, Any] = {
        "metrics": registry is not None,
        "trace": tracer is not None,
        "profile": None,
        "parent_span": None,
    }
    if tracer is not None:
        parent = tracer.current
        if parent is not None:
            spec["parent_span"] = {
                "name": parent.name,
                "id": f"{os.getpid()}:{id(parent):x}",
            }
    if profiler is not None and profiler.config.cpu:
        spec["profile"] = {
            "hz": float(profiler.config.hz),
            "memory": bool(profiler.config.memory),
            "max_stack_depth": int(profiler.config.max_stack_depth),
        }
    task = functools.partial(_process_task, fn, spec)
    start = time.perf_counter()
    start_unix = time.time()
    with ProcessPoolExecutor(
        max_workers=count,
        initializer=_worker_init,
        initargs=(descriptor, _current_log_level()),
    ) as pool:
        outcomes = list(pool.map(task, range(len(work)), work))
    results: List[R] = []
    worker_of: Dict[int, int] = {}  # pid -> first-seen ordinal
    busy_by_pid: Dict[int, float] = {}
    queue_waits: List[float] = []
    # merge in input order so gauge last-write-wins is deterministic
    for index, (result, payload) in enumerate(outcomes):
        pid = int(payload["pid"])
        if pid not in worker_of:
            worker_of[pid] = len(worker_of)
        elapsed = float(payload["elapsed_s"])
        if registry is not None:
            if payload.get("metrics") is not None:
                registry.merge_snapshot(payload["metrics"])
            registry.observe("parallel.item_seconds", elapsed)
            wait = max(float(payload["start_unix_s"]) - start_unix, 0.0)
            queue_waits.append(wait)
            registry.observe("parallel.queue_wait_seconds", wait)
            busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + elapsed
        if tracer is not None and payload.get("trace") is not None:
            tracer.graft(payload["trace"], worker=worker_of[pid], item=index)
        if profiler is not None and payload.get("profile") is not None:
            profiler.merge_worker(payload["profile"])
        results.append(result)
    if registry is not None:
        wall = time.perf_counter() - start
        busy = sum(busy_by_pid.values())
        utilization = min(1.0, busy / (wall * count)) if wall > 0 else 1.0
        registry.set_gauge("parallel.utilization", utilization)
        registry.set_gauge("parallel.workers_used", float(len(worker_of)))
        registry.observe("parallel.serialize_seconds", serialize_s)
        if queue_waits:
            registry.set_gauge("parallel.pool_startup_seconds", min(queue_waits))
        for pid in sorted(busy_by_pid, key=worker_of.__getitem__):
            registry.observe(
                f"parallel.worker_busy_seconds[worker={worker_of[pid]}]",
                busy_by_pid[pid],
            )
    return results
