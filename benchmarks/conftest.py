"""Shared fixtures and helpers for the benchmark harness.

Every paper table/figure has one bench module. By default the large
Melbourne-like networks run at quarter scale (``*-small`` presets,
~1k-5k segments) so the whole harness finishes in minutes; set
``REPRO_FULL_SCALE=1`` to run the paper-scale networks (17k-80k
segments — budget hours, as the paper's own Table 3 did).

Each bench prints the rows/series the paper reports and writes them to
``benchmarks/results/<name>.json`` so EXPERIMENTS.md can reference the
recorded numbers. Run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables inline.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.network.dual import build_road_graph
from repro.obs.bench import append_history
from repro.obs.manifest import run_manifest
from repro.obs.metrics import process_max_rss_bytes

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

# dataset names used by the large-network benches
LARGE_NAMES = ["M1", "M2", "M3"] if FULL_SCALE else ["M1-small", "M2-small", "M3-small"]


def bench_dataset(name: str, seed: int = 0):
    """(road_graph, network) for a registry dataset with densities applied."""
    network, densities = load_dataset(name, seed=seed)
    graph = build_road_graph(network).with_features(densities)
    return graph, network


@pytest.fixture(scope="session")
def d1_graph():
    graph, __ = bench_dataset("D1", seed=7)
    return graph


@pytest.fixture(scope="session")
def large_graphs():
    """Road graphs of the three large-network analogues."""
    return {name: bench_dataset(name, seed=3)[0] for name in LARGE_NAMES}


def save_results(name: str, payload: Dict) -> Path:
    """Persist a bench's reported numbers under benchmarks/results/.

    A ``provenance`` run manifest (package versions, platform, git SHA,
    timestamp) is attached so recorded numbers stay comparable across
    machines and commits, and the numeric surface of the payload is
    appended to ``benchmarks/results/history.jsonl`` — the trajectory
    that ``repro-partition bench compare`` gates regressions against.
    Set ``REPRO_BENCH_HISTORY`` to redirect the history file (the CI
    gate uses a scratch path), or to ``0`` to skip the append.

    Memory footprint rides along: every record gets the process's
    ``max_rss_bytes`` high-water mark (and ``peak_alloc_bytes`` when
    tracemalloc is tracing), which ``bench compare`` gates as
    lower-is-better — a benchmark that starts holding 3x the memory
    fails CI even when its timings are flat.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = dict(payload)
    payload.setdefault("provenance", run_manifest(extra={"bench": name}))
    rss = process_max_rss_bytes()
    if rss is not None:
        payload.setdefault("max_rss_bytes", rss)
    if tracemalloc.is_tracing():
        payload.setdefault("peak_alloc_bytes", tracemalloc.get_traced_memory()[1])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_jsonify)

    history = os.environ.get("REPRO_BENCH_HISTORY", "")
    if history != "0":
        history_path = Path(history) if history else RESULTS_DIR / "history.jsonl"
        append_history(
            name,
            json.loads(json.dumps(payload, default=_jsonify)),
            path=history_path,
            manifest=payload["provenance"],
        )
    return path


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj)}")


def print_table(title: str, headers: List[str], rows: List[List]) -> None:
    """Print an aligned table (visible with ``pytest -s``)."""
    widths = [
        max(len(str(h)), *(len(f"{r[i]:.4f}" if isinstance(r[i], float) else str(r[i])) for r in rows))
        for i, h in enumerate(headers)
    ]

    def fmt(value, width):
        if isinstance(value, float):
            return f"{value:.4f}".rjust(width)
        return str(value).rjust(width)

    print(f"\n=== {title} ===")
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(fmt(v, w) for v, w in zip(row, widths)))
