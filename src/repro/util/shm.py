"""Shared-memory numpy arrays for the multiprocess data plane.

Process pools escape the GIL, but naive ``ProcessPoolExecutor`` usage
pickles every closed-over array into every task — at city scale that
means shipping a 500k-element density vector (or a multi-million-entry
CSR adjacency) through a pipe once per work item. :class:`ShardContext`
removes that cost: the owner registers named numpy arrays (and CSR
matrices) once, :meth:`ShardContext.share` materialises them into
:class:`multiprocessing.shared_memory.SharedMemory` blocks, and worker
processes attach **zero-copy views** of the same physical pages.

Usage pattern (the one :func:`repro.util.parallel.map_parallel`
implements; giving it a shard is what selects the process pool)::

    with ShardContext() as ctx:
        ctx.put("features", features)
        ctx.put_csr("adjacency", road_graph.adjacency)
        results = map_parallel(fn, items, workers=2, shard=ctx)
    # blocks are unlinked here — on success, exception or Ctrl-C

Inside ``fn`` (in a pool worker or in the single-worker loop)::

    def fn(item):
        ctx = active_shard()
        features = ctx.get("features")       # zero-copy either way
        adjacency = ctx.get_csr("adjacency")
        ...

Lifecycle rules:

* the **owner** (the process that called ``put``) is the only one that
  unlinks; leaving the ``with`` block — normally, via an exception, or
  via ``KeyboardInterrupt`` — frees every block exactly once;
* **workers** only ever attach and close; attached blocks are
  unregistered from the ``resource_tracker`` so the owner's unlink
  stays the single point of truth (no double-unlink warnings);
* in the single-worker loop ``get`` returns the registered array
  itself — no shared-memory block is ever created unless
  :meth:`share` runs, so the default single-process path pays
  nothing.

Platform note: on Linux the blocks live in ``/dev/shm``; macOS and
Windows use ``spawn`` as the default start method, where workers
re-import the library — everything here is spawn-safe because workers
receive a plain-dict descriptor and re-attach by name (see
``docs/scaling.md`` for the caveats).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from multiprocessing import shared_memory
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ReproError
from repro.obs.metrics import current_registry, incr, observe, set_gauge

__all__ = [
    "ShardContext",
    "active_shard",
    "use_shard",
    "set_worker_shard",
    "flush_pending_metrics",
]

# Data-plane metrics recorded before any registry exists (a pool
# worker attaches its shard in the initializer, while the worker-side
# registry only comes up per task). They are parked here and flushed
# into the first task's registry by flush_pending_metrics, riding back
# to the parent with that task's metrics snapshot.
_PENDING_METRICS: List[Tuple[str, str, float]] = []  # (kind, name, value)
_PENDING_METRICS_CAP = 256  # bound memory when nothing ever flushes


def _record(kind: str, name: str, value: float) -> None:
    registry = current_registry()
    if registry is None:
        if len(_PENDING_METRICS) < _PENDING_METRICS_CAP:
            _PENDING_METRICS.append((kind, name, value))
    elif kind == "inc":
        registry.inc(name, value)
    elif kind == "observe":
        registry.observe(name, value)
    else:
        registry.set_gauge(name, value)


def flush_pending_metrics(registry) -> None:
    """Replay data-plane metrics parked while no registry was active."""
    while _PENDING_METRICS:
        kind, name, value = _PENDING_METRICS.pop(0)
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "observe":
            registry.observe(name, value)
        else:
            registry.set_gauge(name, value)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared-memory block without tracking it.

    On 3.13+ ``track=False`` skips resource-tracker registration
    outright. Earlier interpreters register the attach, but pool
    workers share the owner's tracker process and its cache is a set,
    so the extra registration is idempotent and the owner's unlink
    remains the single point that clears it — crucially the worker
    must NOT unregister, or it would race the owner's entry away.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:  # pragma: no cover - interpreter-version dependent
        return shared_memory.SharedMemory(name=name)


class ShardContext:
    """A named set of arrays shareable with worker processes zero-copy.

    The context is cheap until :meth:`share` is called: ``put`` only
    records a reference, and ``get`` returns the original array, so a
    single-worker loop uses the exact same code path as process-pool
    workers with no copies and no kernel objects.

    Parameters
    ----------
    None. Construct, ``put`` arrays, and either use as a context
    manager (recommended — guarantees unlink) or call
    :meth:`close` + :meth:`unlink` manually.
    """

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._csr_shapes: Dict[str, tuple] = {}
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self._owner = True
        self._closed = False
        self._nbytes = 0

    # ------------------------------------------------------------------
    # registration (owner side)
    def put(self, name: str, array: Any) -> None:
        """Register ``array`` under ``name`` (contiguous, owner side)."""
        if not self._owner:
            raise ReproError("cannot put() into an attached ShardContext")
        if self._blocks:
            raise ReproError("cannot put() after share(); register arrays first")
        arr = np.ascontiguousarray(array)
        if arr.size == 0:
            # SharedMemory rejects zero-byte blocks; keep a private copy
            arr = arr.copy()
        if name in self._arrays:
            self._nbytes -= self._arrays[name].nbytes
        self._arrays[name] = arr
        self._nbytes += arr.nbytes
        set_gauge("shm.arrays_registered", float(len(self._arrays)))
        set_gauge("shm.bytes_registered", float(self._nbytes))

    def put_csr(self, name: str, matrix) -> None:
        """Register a CSR matrix as three arrays plus its shape."""
        csr = sp.csr_matrix(matrix)
        self._csr_shapes[name] = tuple(int(s) for s in csr.shape)
        self.put(f"{name}.data", csr.data)
        self.put(f"{name}.indices", csr.indices)
        self.put(f"{name}.indptr", csr.indptr)

    # ------------------------------------------------------------------
    # access (both sides)
    def has(self, name: str) -> bool:
        """True when ``name`` is registered (array or CSR)."""
        return name in self._arrays or name in self._csr_shapes

    def get(self, name: str) -> np.ndarray:
        """The array registered under ``name`` (zero-copy view)."""
        try:
            return self._arrays[name]
        except KeyError:
            raise ReproError(f"no shared array named {name!r}") from None

    def get_csr(self, name: str) -> sp.csr_matrix:
        """Reconstruct the CSR matrix registered under ``name``."""
        if name not in self._csr_shapes:
            raise ReproError(f"no shared CSR matrix named {name!r}")
        csr = sp.csr_matrix(
            (
                self.get(f"{name}.data"),
                self.get(f"{name}.indices"),
                self.get(f"{name}.indptr"),
            ),
            shape=self._csr_shapes[name],
            copy=False,
        )
        return csr

    def names(self) -> List[str]:
        """All registered array names (CSR matrices appear as ``name.*``)."""
        return sorted(self._arrays)

    def block_names(self) -> List[str]:
        """OS-level shared-memory block names currently materialised."""
        return sorted(shm.name for shm in self._blocks.values())

    # ------------------------------------------------------------------
    # sharing (owner side)
    def share(self) -> Dict[str, Any]:
        """Materialise shared-memory blocks and return the descriptor.

        Idempotent: repeated calls reuse the blocks created first.
        The descriptor is a plain JSON-able dict that workers pass to
        :meth:`attach` (via the pool initializer).
        """
        if not self._owner:
            raise ReproError("attached ShardContext cannot share()")
        if self._closed:
            raise ReproError("ShardContext already closed")
        t0 = time.perf_counter()
        created = 0
        for name, arr in self._arrays.items():
            if name in self._blocks:
                continue
            block = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=block.buf)
            view[...] = arr
            self._blocks[name] = block
            # the owner itself reads from the block from now on, so
            # worker writes (there are none by convention) would be
            # visible and memory is not held twice
            self._arrays[name] = view
            created += 1
        if created:
            incr("shm.shares")
            observe("shm.share_seconds", time.perf_counter() - t0)
            set_gauge(
                "shm.bytes_shared",
                float(sum(block.size for block in self._blocks.values())),
            )
        return {
            "blocks": {
                name: {
                    "shm": self._blocks[name].name,
                    "shape": list(self._arrays[name].shape),
                    "dtype": str(self._arrays[name].dtype),
                }
                for name in self._arrays
            },
            "csr": {name: list(shape) for name, shape in self._csr_shapes.items()},
        }

    @classmethod
    def attach(cls, descriptor: Dict[str, Any]) -> "ShardContext":
        """Worker side: attach zero-copy views of the owner's blocks."""
        t0 = time.perf_counter()
        ctx = cls.__new__(cls)
        ctx._arrays = {}
        ctx._csr_shapes = {
            name: tuple(shape) for name, shape in descriptor.get("csr", {}).items()
        }
        ctx._blocks = {}
        ctx._owner = False
        ctx._closed = False
        ctx._nbytes = 0
        for name, meta in descriptor.get("blocks", {}).items():
            block = _attach_block(meta["shm"])
            ctx._blocks[name] = block
            ctx._arrays[name] = np.ndarray(
                tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]), buffer=block.buf
            )
            ctx._nbytes += ctx._arrays[name].nbytes
        # pool workers attach before any registry exists; _record parks
        # the observation until flush_pending_metrics replays it
        _record("inc", "shm.attaches", 1.0)
        _record("observe", "shm.attach_seconds", time.perf_counter() - t0)
        return ctx

    # ------------------------------------------------------------------
    # lifecycle
    def close(self) -> None:
        """Drop the views and close the block mappings (both sides)."""
        if self._closed:
            return
        self._closed = True
        # numpy views into the buffers must die before close()
        self._arrays.clear()
        for block in self._blocks.values():
            try:
                block.close()
            except OSError:  # pragma: no cover - already gone
                pass

    def unlink(self) -> Tuple[int, int]:
        """Free the OS blocks (owner only; safe to call repeatedly).

        Returns ``(freed, missing)`` — blocks actually unlinked vs.
        blocks that were already gone (someone else freed them, which
        the leak check below treats as a dirty outcome).
        """
        if not self._owner:
            return (0, 0)
        freed = missing = 0
        for block in self._blocks.values():
            try:
                block.unlink()
                freed += 1
            except FileNotFoundError:  # pragma: no cover - already freed
                missing += 1
        self._blocks.clear()
        if freed:
            incr("shm.blocks_unlinked", freed)
        if missing:  # pragma: no cover - needs an external unlink
            incr("shm.unlink_missing", missing)
        return (freed, missing)

    def __enter__(self) -> "ShardContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # runs on success, on any exception, and on KeyboardInterrupt —
        # the with-block is the no-leak guarantee the tests pin down
        self.close()
        __, missing = self.unlink()
        incr("shm.leak_checks")
        if missing == 0:
            incr("shm.leak_checks_clean")


# ----------------------------------------------------------------------
# ambient shard resolution
#
# The single-worker loop installs the context through a contextvar.
# Process-pool workers get a process-global set once by the pool
# initializer. ``active_shard`` checks the contextvar first so a nested
# in-process map shadows correctly.
_ACTIVE_SHARD: ContextVar[Optional[ShardContext]] = ContextVar(
    "repro_active_shard", default=None
)
_WORKER_SHARD: Optional[ShardContext] = None


def set_worker_shard(ctx: Optional[ShardContext]) -> None:
    """Install the process-global shard (pool initializer side)."""
    global _WORKER_SHARD
    if _WORKER_SHARD is not None and _WORKER_SHARD is not ctx:
        _WORKER_SHARD.close()
    _WORKER_SHARD = ctx


def active_shard() -> ShardContext:
    """The ambient :class:`ShardContext` for the current worker.

    Raises :class:`~repro.exceptions.ReproError` when no shard is
    active — shared-array accessors must only run under a shard-aware
    map.
    """
    ctx = _ACTIVE_SHARD.get()
    if ctx is None:
        ctx = _WORKER_SHARD
    if ctx is None:
        raise ReproError(
            "no active ShardContext; pass shard=... to map_parallel "
            "or enter use_shard(ctx)"
        )
    return ctx


@contextmanager
def use_shard(ctx: ShardContext) -> Iterator[ShardContext]:
    """Install ``ctx`` as the ambient shard for the enclosed block."""
    token = _ACTIVE_SHARD.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE_SHARD.reset(token)
