"""Compatibility home of :func:`repro.shard.spatial.segment_midpoints`.

Supergraph mining runs as one serial pass over the whole road graph;
nothing here shards it. The one function left is kept importable from
its old path for callers that still use it.
"""
