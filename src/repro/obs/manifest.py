"""Run manifests: everything needed to reproduce (or audit) a run.

:func:`run_manifest` captures the execution environment — package
versions, platform, git SHA, worker configuration — plus the caller's
config and seed, as a JSON-serialisable dict. The framework attaches
one to every :class:`repro.pipeline.results.PartitioningResult`; the
CLI and the benchmark writers embed one in their JSON outputs, so any
recorded number can be traced back to the code and environment that
produced it.
"""

from __future__ import annotations

import functools
import os
import platform
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["MANIFEST_SCHEMA_VERSION", "run_manifest", "new_run_id"]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


def new_run_id() -> str:
    """A short, sortable, unique run identifier."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


@functools.lru_cache(maxsize=1)
def _environment() -> Dict[str, Any]:
    """Static facts about the interpreter and platform (computed once)."""
    versions: Dict[str, Optional[str]] = {
        "python": platform.python_version(),
    }
    for module_name in ("numpy", "scipy"):
        try:
            module = __import__(module_name)
            versions[module_name] = getattr(module, "__version__", None)
        except ImportError:  # pragma: no cover - both ship with the repo
            versions[module_name] = None
    try:
        import repro

        versions["repro"] = getattr(repro, "__version__", None)
    except ImportError:  # pragma: no cover
        versions["repro"] = None

    return {
        "versions": versions,
        "platform": {
            "system": platform.system(),
            "release": platform.release(),
            "machine": platform.machine(),
            "implementation": platform.python_implementation(),
        },
        "argv0": sys.argv[0] if sys.argv else None,
    }


@functools.lru_cache(maxsize=1)
def _git_sha() -> Optional[str]:
    """Current git commit SHA, read from the .git directory (no subprocess).

    Walks up from this file looking for ``.git``; returns None when the
    package is not running from a git checkout.
    """
    try:
        here = Path(__file__).resolve()
    except OSError:  # pragma: no cover
        return None
    for parent in here.parents:
        git_dir = parent / ".git"
        if not git_dir.exists():
            continue
        try:
            if git_dir.is_file():  # worktree / submodule indirection
                target = git_dir.read_text(encoding="utf-8").strip()
                if not target.startswith("gitdir:"):
                    return None
                git_dir = (parent / target.split(":", 1)[1].strip()).resolve()
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref:"):
                ref = head.split(":", 1)[1].strip()
                ref_path = git_dir / ref
                if ref_path.exists():
                    return ref_path.read_text(encoding="utf-8").strip()
                packed = git_dir / "packed-refs"
                if packed.exists():
                    for line in packed.read_text(encoding="utf-8").splitlines():
                        if line.endswith(" " + ref):
                            return line.split(" ", 1)[0]
                return None
            return head or None
        except OSError:  # pragma: no cover - unreadable checkout
            return None
    return None


def _jsonable_seed(seed: Any) -> Any:
    if seed is None or isinstance(seed, (int, float, str, bool)):
        return seed
    return repr(seed)


def run_manifest(
    config: Optional[Dict[str, Any]] = None,
    seed: Any = None,
    run_id: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
    n_shards: Optional[int] = None,
    n_shards_resolved: Optional[int] = None,
    stages: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build a reproducibility manifest for one run.

    Parameters
    ----------
    config:
        The run's configuration (scheme, k, thresholds ...), already
        JSON-serialisable.
    seed:
        The reproducibility seed (non-primitive seeds are recorded via
        ``repr``).
    run_id:
        Identifier linking the manifest to trace/metrics exports; a
        fresh one is generated when omitted.
    extra:
        Additional top-level fields (e.g. dataset name).
    workers:
        The run's requested worker count (``None``/``0`` included);
        the manifest records both the request and the **resolved**
        count (``workers_resolved``) — ``workers=0`` means "all
        cores", so the resolved number is what actually ran and what a
        reproduction on different hardware needs to know.
    n_shards:
        The requested shard count for sharded supergraph mining
        (``n_shards_requested`` in the manifest; None when unsharded).
    n_shards_resolved:
        The shard count that actually ran, after the minimum-size
        clamp — resolution needs the graph, so the caller passes it in
        (None when unknown or unsharded).
    stages:
        Optional per-stage execution record
        (``{stage: {"pool": ..., "workers": ..., ...}}``)
        for pipelines whose stages resolve differently.

    Returns
    -------
    dict
        JSON-serialisable manifest with ``schema_version``,
        ``created_utc``, ``run_id``, ``seed``, ``config``,
        ``versions``, ``platform``, ``git_sha``, ``argv`` and ``env``
        keys. ``env`` holds **every** ``REPRO_*`` environment knob set
        at manifest time (plus the always-present worker/scale keys),
        and ``argv`` the full command line — together they make a
        recorded profile or benchmark re-runnable from the manifest
        alone.
    """
    env = _environment()
    # the worker/scale knobs are always present (None when unset) so
    # consumers can rely on the keys; any other REPRO_* knob rides along
    env_knobs: Dict[str, Optional[str]] = {
        "REPRO_NUM_WORKERS": os.environ.get("REPRO_NUM_WORKERS") or None,
        "REPRO_FULL_SCALE": os.environ.get("REPRO_FULL_SCALE") or None,
    }
    for key in sorted(os.environ):
        if key.startswith("REPRO_") and key not in env_knobs:
            env_knobs[key] = os.environ[key]

    # the resolved count is what actually ran (argument wins over the
    # env var, 0 expands to the core count); resolution failures must
    # not take down manifest creation, so fall back to the raw value
    try:
        from repro.util.parallel import resolve_workers

        workers_resolved: Optional[int] = resolve_workers(workers)
    except Exception:  # pragma: no cover - invalid knob at manifest time
        workers_resolved = None

    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_id": run_id if run_id is not None else new_run_id(),
        "seed": _jsonable_seed(seed),
        "config": dict(config) if config else {},
        "versions": dict(env["versions"]),
        "platform": dict(env["platform"]),
        "git_sha": _git_sha(),
        "argv": list(sys.argv),
        "env": env_knobs,
        "workers_requested": workers,
        "workers_resolved": workers_resolved,
        "n_shards_requested": n_shards,
        "n_shards_resolved": n_shards_resolved,
        "stages": dict(stages) if stages else {},
    }
    if extra:
        manifest.update(extra)
    return manifest
