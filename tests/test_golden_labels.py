"""Golden labels: fixed-seed partitions must stay bit-identical.

Each case partitions a fixed input with a fixed seed and compares the
sha1 of the label vector (as little-endian int64) with a pinned value.
A speed-up or refactor that changes any label fails here; a deliberate
change of results has to update the pins and say why.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro import SpatialPartitioningFramework
from repro.datasets.large import melbourne_like
from repro.datasets.registry import load_dataset

# (dataset, scheme, epsilon_eta) -> sha1 of the int64 labels, k=6, seed=0
GOLDEN = {
    ("D1", "ASG", 0.0): "b1c7dd76e9559b7a4235e14d407619f6cc4fd156",
    ("D1", "NSG", 0.0): "6c97c8a4f643bfb58ad108ffc8e111ecaaba5dbd",
    ("D1", "AG", 0.0): "40ae1a35c3b8fd541e59faa26a6581fcd5539310",
    ("D1", "ASG", 0.5): "a9dd0032c5e3f4e4fa568be61a04b7a996f80d2c",
    ("M1x0.08", "ASG", 0.0): "2f5e440c71f56b95ac87dafd664e29aae99d12bb",
    ("M1x0.08", "NSG", 0.0): "7b3a964e819e7dcb7e5d5866c81b46d69b02dafd",
    ("M1x0.08", "AG", 0.0): "f9d6c880fca946389008f42966f0f40cdc78348f",
    ("M1x0.08", "ASG", 0.5): "565338e2263e22b37f8636568c8d08a3f989a79f",
    # ARPACK regime: a supergraph of 3,004 nodes (ASG/NSG) and a road
    # graph of 6,771 nodes (NG), all above the dense cutoff
    ("M3x0.3", "ASG", 0.0): "cae4fc5ca702d69a83f3f95d6d203bc7f840c026",
    ("M3x0.3", "NSG", 0.0): "90825564de55855608ebdfeab662c59d56d6bf77",
    ("M3x0.3", "NG", 0.0): "c09784a682ad880a10d194fd5592a052cc94fa45",
}

@functools.lru_cache(maxsize=None)
def _input(name):
    if name == "D1":
        return load_dataset("D1", seed=0)
    preset, factor = name.split("x")
    return melbourne_like(preset, size_factor=float(factor), seed=0)


def label_hash(dataset: str, scheme: str, epsilon_eta: float) -> str:
    network, densities = _input(dataset)
    result = SpatialPartitioningFramework(
        k=6, scheme=scheme, epsilon_eta=epsilon_eta, seed=0
    ).partition(network, densities)
    labels = np.asarray(result.labels, dtype="<i8")
    return hashlib.sha1(labels.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_labels_match_pinned_hash(case):
    assert label_hash(*case) == GOLDEN[case]
