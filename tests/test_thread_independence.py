"""Labels must not depend on how many threads the BLAS library uses.

The ARPACK eigensolve runs on supergraphs above ``DENSE_CUTOFF`` (200)
supernodes; the M3x0.3 input below mines about 3,000. Each case
partitions such an input in a fresh child process whose environment
alone sets the OpenBLAS thread count, and compares the labels.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.graph.eigen import DENSE_CUTOFF

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import hashlib, json
import numpy as np
from repro import SpatialPartitioningFramework
from repro.datasets.large import melbourne_like

network, densities = melbourne_like("M3", size_factor=0.3)
result = SpatialPartitioningFramework(k=8, scheme="ASG", seed=1).partition(
    network, densities
)
labels = np.asarray(result.labels, dtype=np.int64)
print(json.dumps({
    "n_supernodes": result.n_supernodes,
    "labels": hashlib.sha1(labels.tobytes()).hexdigest(),
}))
"""


def _partition_with_threads(n_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_asg_labels_identical_for_one_and_two_blas_threads():
    one = _partition_with_threads(1)
    two = _partition_with_threads(2)
    # the input must take the ARPACK path, where the operator runs
    assert one["n_supernodes"] > DENSE_CUTOFF
    assert one == two
