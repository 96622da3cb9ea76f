"""Paper-scale benchmark of the road-network partitioner.

    python3 paperbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program under test is imported from
``./src`` exactly as it is checked out. Workloads (see README.md):

* ``table3``    -- one-shot ASG partitions of full-scale M1/M2/M3;
* ``crossover`` -- ASG/NSG partitions of mid-size graphs straddling the
  dense/ARPACK eigensolver cutoff;
* ``stream``    -- closed-loop incremental updates on M2 with epoch
  publishing;
* ``serve``     -- open-loop lookup traffic against ``repro serve``.

Setup runs ``MIN_SETUPS`` times, and more (up to ``MAX_SETUPS``) while
all of them took under ``SETUP_BUDGET_S``; ``setup_s`` is the median and
the last set-up is measured. With ``--trace 0`` the last stdout line is the
end-to-end result; with ``--trace 1`` the workload runs twice on the
same inputs (untraced, then with every layer function wrapped) and the
last line holds the per-layer metrics. Details, the thread environment
and the spans go to ``.bench_out/`` and stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("table3", "crossover", "stream", "serve")
# cheap set-ups repeat more: one of a fraction of a second moves by a
# third between runs
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 5.0

# Every workload reports every end-to-end metric (see README.md for what
# an operation and a case are on each workload).
E2E_UNITS = {
    "setup_s": "s",
    "op_s.case_median_sum": "s",
    "cpu_s": "s",
    "quality.ans": "ANS",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_program() -> bool:
    """Import ``repro`` from ``ROOT/src`` only; False when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")
    return True


def thread_env() -> dict:
    """The settings that decide how many threads the program uses (read, never set)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # older numpy: no dict mode
        blas = {"error": str(exc)}
    env = {"nproc": os.cpu_count()}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "REPRO_NUM_WORKERS", "REPRO_PARALLEL_MODE"):
        env[name] = os.environ.get(name)
    env["numpy_blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return env


def workload_module(name: str):
    if name in ("table3", "crossover"):
        import partition as module
    elif name == "stream":
        import stream as module
    else:
        import serve as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    # a SIGTERM unwinds through ``close``, which stops a server subprocess
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(1))
    if not import_program():
        log(f"paperbench: no program source at {ROOT / 'src' / 'repro'}; run from a checkout")
        return 2
    module = workload_module(args.workload)
    env = thread_env()
    log("paperbench env " + json.dumps(env))

    setup_times = []
    state = None
    try:
        while len(setup_times) < MIN_SETUPS or (
                len(setup_times) < MAX_SETUPS and sum(setup_times) < SETUP_BUDGET_S):
            if state is not None:
                module.close(state)
                state = None
            started = time.perf_counter()
            state = module.setup(args.workload, args.seed, args.toy, args.seconds)
            setup_times.append(time.perf_counter() - started)
        module.warmup(state)
        if args.trace:
            result = module.traced(state, args.seconds)
        else:
            result = module.untraced(state, args.seconds)
    finally:
        if state is not None:
            module.close(state)

    metrics = result["metrics"]
    if args.trace:
        from layers import PER_LAYER_UNITS as units

        for name in units:  # a layer that does no work here reads 0
            metrics.setdefault(name, 0.0)
    else:
        units = E2E_UNITS
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["success_frac"] = 1.0 - result["failed"] / result["attempted"]
        metrics.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if sorted(metrics) != sorted(E2E_UNITS):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from E2E_UNITS")

    for error in result["errors"][:20]:
        log("paperbench check failed: " + error)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in result:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(result.pop("spans")))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "env": env, "setup_times_s": setup_times,
              **result}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
