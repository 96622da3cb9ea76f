"""Closed-loop incremental updates: the ``stream`` workload.

M2 is partitioned once (k=16) in setup by ``IncrementalRepartitioner.
bootstrap`` on a fixed start snapshot. The run replays short drift
episodes: each starts from a copy of that bootstrapped state attached
to a ``SnapshotStore`` through ``attach_repartitioner``, then calls
``update()`` once per density step and waits for it before sending the
next; every update publishes an epoch (a write) and nothing reads.
Episodes keep every run's updates drawn from the same regime: left
running, the repartitioner splits regions until none is large enough to
re-mine, after which updates do no partitioning at all. A case is one
(episode, step) update.

The density noise decides whether an update re-mines anything (0.03 s
against 0.3 s or more) and whether a re-mined region's supergraph lands
above the dense/ARPACK cutoff (1 s and more). Episodes are two steps
long because from the third step on these flips come at about even
odds: with eight five-step episodes a run's total moved by a quarter
between seeds. A case's median over three noise draws was no steadier,
since a case at even odds flips its median too.

Checks per update (untimed): one new epoch published whose labels are
the update's labels, labels dense (no empty region) and every region
spatially connected (one constrained component per region), and
identical labels when an episode step is replayed. ANS is scored on
every update's labels.
"""

from __future__ import annotations

import copy
import hashlib
import time
from typing import Dict, List

import numpy as np

import inputs
from partition import case_medians, case_metrics

K = 16
STEPS = 2
REPLAY_STEPS = 2
# ``--seconds`` becomes a fixed number of episodes, one per
# EPISODE_SECONDS and at least four, so every run times the same updates
# whatever the host's speed.
EPISODE_SECONDS = 0.75


def setup(workload: str, seed: int, toy: bool, seconds: float) -> Dict:
    from repro import IncrementalRepartitioner, build_road_graph
    from repro.serve import SnapshotStore

    preset, factor, k = ("M2", 0.12, 6) if toy else ("M2", 1.0, K)
    net = inputs.network(preset, factor)
    mids = inputs.midpoints(net)
    n_episodes = max(4, round(seconds / EPISODE_SECONDS))
    start, episodes = inputs.drift_episodes(mids, n_episodes, STEPS, np.random.default_rng(seed))
    graph = build_road_graph(net)
    template = IncrementalRepartitioner(graph, k=k, seed=inputs.NETWORK_SEED)
    template.bootstrap(start)
    return {"mids": mids, "start": start, "episodes": episodes, "template": template,
            "store": SnapshotStore(), "hashes": {}}


def close(state: Dict) -> None:
    state["store"].close()


def warmup(state: Dict) -> None:
    """One untimed update, so lazy imports are paid before timing."""
    _episode(state, 0, steps=1)


def _check(labels: np.ndarray, adjacency) -> List[str]:
    from repro.graph.components import count_constrained_components

    n_regions = int(labels.max()) + 1
    if np.unique(labels).size != n_regions:
        return ["empty regions"]
    pieces = count_constrained_components(adjacency, labels)
    return [] if pieces == n_regions else [f"{pieces - n_regions} regions are disconnected"]


def _episode(state: Dict, ep: int, steps: int = 0) -> List[Dict]:
    from repro.metrics import ans
    from repro.serve.snapshot import attach_repartitioner

    store = state["store"]
    rep = copy.deepcopy(state["template"])
    unsubscribe = attach_repartitioner(store, rep, points=state["mids"],
                                       bootstrap_densities=state["start"])
    adjacency = rep.graph.adjacency
    labels = rep.labels
    ops = []
    try:
        for step, densities in enumerate(state["episodes"][ep][: steps or None]):
            epoch = store.last_epoch
            cpu, started = time.process_time(), time.perf_counter()
            report = rep.update(densities)
            seconds, cpu = time.perf_counter() - started, time.process_time() - cpu
            sizes = np.bincount(labels)
            labels = report.labels
            op = {"key": (ep, step), "seconds": seconds, "cpu_s": cpu, "refreshed": len(report.refreshed),
                  "kept": len(report.kept), "relabelled": report.n_relabelled,
                  "refreshed_segments": int(sizes[report.refreshed].sum()),
                  "hash": hashlib.sha1(labels.astype(np.int64).tobytes()).hexdigest(),
                  "errors": [f"update {ep}/{step}: {e}" for e in _check(labels, adjacency)]}
            snap = store.current()
            if snap.epoch != epoch + 1 or not np.array_equal(snap.index.labels, labels):
                op["errors"].append(f"update {ep}/{step}: epoch {snap.epoch} is not its publish")
            if state["hashes"].setdefault(op["key"], op["hash"]) != op["hash"]:
                op["errors"].append(f"update {ep}/{step}: labels differ from an earlier replay")
            if not op["errors"]:
                op["ans"] = ans(densities, labels, adjacency)
            ops.append(op)
    finally:
        unsubscribe()
    return ops


def _result(state: Dict, ops: List[Dict]) -> Dict:
    # replay the start of episode 0 (untimed) so every run checks determinism
    extra = _episode(state, 0, steps=REPLAY_STEPS)
    errors = [e for op in ops + extra for e in op["errors"]]
    return {"attempted": len(ops) + len(extra),
            "failed": sum(1 for op in ops + extra if op["errors"]), "errors": errors,
            "details": {"updates": len(ops), "keys": [op["key"] for op in ops],
                        "seconds": [op["seconds"] for op in ops],
                        "refreshed": [op["refreshed"] for op in ops]}}


def untraced(state: Dict, seconds: float) -> Dict:
    ops = [op for ep in range(len(state["episodes"])) for op in _episode(state, ep)]
    result = _result(state, ops)
    times = [op["seconds"] for op in ops]
    # Percentiles stay in the report only: a p90 of a few dozen updates
    # rests on the few slowest and moved by 25% between runs of the same
    # seed, and the p50 falls between the updates that re-mine nothing
    # (0.03-0.06 s) and those that do.
    result["details"].update({f"p{q}_s": float(np.percentile(times, q)) for q in (50, 90)})
    result["metrics"] = case_metrics(case_medians(ops, lambda op: op["key"]))
    return result


def traced(state: Dict, seconds: float) -> Dict:
    """Every episode, once untraced and once traced."""
    from layers import layer_metrics, paired
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = paired(tracer, range(len(state["episodes"])), lambda ep: _episode(state, ep))
    plain = [op for episode in plain for op in episode]
    ops = [op for episode in traced for op in episode]
    result = _result(state, ops)
    layer = layer_metrics(tracer.spans, "pipeline.update", len(ops))
    layer["obs.trace_overhead_frac"] = (
        sum(op["seconds"] for op in ops) / sum(op["seconds"] for op in plain) - 1.0)
    layer["pipeline.update.regions_refreshed"] = float(np.mean([op["refreshed"] for op in ops]))
    layer["pipeline.update.regions_kept"] = float(np.mean([op["kept"] for op in ops]))
    refreshed = sum(op["refreshed_segments"] for op in ops)
    layer["pipeline.update.relabel_yield"] = (
        sum(op["relabelled"] for op in ops) / refreshed if refreshed else 0.0)
    result["metrics"] = layer
    result["spans"] = tracer.export()
    return result
