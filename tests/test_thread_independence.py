"""Labels and eigenvectors must not depend on how many threads the BLAS
library uses.

The ARPACK eigensolve runs on supergraphs above ``DENSE_CUTOFF`` (200)
supernodes; the M3x0.3 input below mines about 3,000. Each case runs
in a fresh child process whose environment alone sets the OpenBLAS
thread count, and compares the results: the partition labels of that
input, the eigenvector bytes of a 25,000-node solve, and those of dense
solves at 50 and 200 nodes. At 25,000 nodes a multi-threaded OpenBLAS
sums ARPACK's dense kernels in another order and the bytes differ,
unless every solve pins it to one thread; the dense ``eigh`` runs on
numpy's own OpenBLAS, which the solve pins too.
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


SOLVE_CHILD = """
import hashlib, json
import numpy as np
import scipy.sparse as sp
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import AlphaCutOperator

n = 25_000
rng = np.random.default_rng(0)
rows = np.r_[np.arange(n), np.arange(n)]
cols = np.r_[(np.arange(n) + 1) % n, (np.arange(n) + 17) % n]
upper = sp.coo_matrix((rng.uniform(0.5, 2.0, rows.size), (rows, cols)), shape=(n, n))
__, vectors, outcome = smallest_eigenpairs(AlphaCutOperator((upper + upper.T).tocsr()), 8)
print(json.dumps({
    "solver": outcome["solver"],
    "vectors": hashlib.sha1(np.ascontiguousarray(vectors).tobytes()).hexdigest(),
}))
"""


DENSE_CHILD = """
import hashlib, json
import numpy as np
import scipy.sparse as sp
from repro.graph.eigen import smallest_eigenpairs
from repro.graph.laplacian import AlphaCutOperator

out = {}
for n in (50, 200):
    rng = np.random.default_rng(n)
    rows = np.r_[np.arange(n), np.arange(n)]
    cols = np.r_[(np.arange(n) + 1) % n, (np.arange(n) + 17) % n]
    upper = sp.coo_matrix((rng.uniform(0.5, 2.0, rows.size), (rows, cols)), shape=(n, n))
    __, vectors, outcome = smallest_eigenpairs(AlphaCutOperator((upper + upper.T).tocsr()), 8)
    out[n] = [outcome["solver"], hashlib.sha1(np.ascontiguousarray(vectors).tobytes()).hexdigest()]
print(json.dumps(out))
"""


def _run_with_threads(child: str, n_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", child],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_asg_labels_identical_for_one_and_two_blas_threads():
    one = _run_with_threads(CHILD, 1)
    two = _run_with_threads(CHILD, 2)
    # the input must take the ARPACK path, where the operator runs
    assert one["n_supernodes"] > DENSE_CUTOFF
    assert one == two


def test_large_solve_eigenvectors_identical_for_one_and_two_blas_threads():
    # a chorded ring of 25,000 nodes: about 0.6 s a solve, and at this
    # size the bytes differ between 1 and 2 unpinned threads
    one = _run_with_threads(SOLVE_CHILD, 1)
    two = _run_with_threads(SOLVE_CHILD, 2)
    assert one["solver"] == "arpack"
    assert one == two


def test_dense_solve_eigenvectors_identical_for_one_and_two_blas_threads():
    one = _run_with_threads(DENSE_CHILD, 1)
    two = _run_with_threads(DENSE_CHILD, 2)
    assert [solver for solver, __ in one.values()] == ["dense", "dense"]
    assert one == two
