"""Partitioning-as-a-service: epoch snapshots, lookup index, server.

The serving layer answers "which region is segment X in" at traffic
rates while the incremental pipeline keeps repartitioning underneath:

* :class:`~repro.serve.index.SegmentIndex` — immutable per-epoch
  lookup structures (label take, kd-tree point lookup, boundary mask,
  cached quality metrics);
* :class:`~repro.serve.snapshot.SnapshotStore` — the atomic epoch
  pointer with pin/unpin reader protection;
* :class:`~repro.serve.server.PartitionServer` — stdlib asyncio HTTP
  server exposing lookups, region queries, quality and ``/metrics``;
* :func:`~repro.serve.loadgen.run_loadgen` — the matching pipelined
  load generator behind ``repro loadgen`` and the serving benchmark.
"""

from repro.serve.index import SegmentIndex
from repro.serve.loadgen import LoadReport, run_loadgen
from repro.serve.server import PartitionServer, ServerHandle
from repro.serve.snapshot import (
    Snapshot,
    SnapshotStore,
    attach_repartitioner,
)

__all__ = [
    "SegmentIndex",
    "Snapshot",
    "SnapshotStore",
    "attach_repartitioner",
    "PartitionServer",
    "ServerHandle",
    "LoadReport",
    "run_loadgen",
]
