"""Self-test of the benchmark at toy size.

    python3 paperbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and checks
that the last stdout line is a result with exactly the metrics
BENCHMARK.json names for that mode, every one on every workload
(with their units), that every check
passed, and that traced spans cover at least 90% of partition wall time.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

MIN_COVERAGE = 0.9
SECONDS = "2"


def bench_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: checks failed:\n{proc.stderr[-3000:]}")
    return result["metrics"]


def main() -> int:
    e2e, layer = bench_units("end_to_end"), bench_units("per_layer")
    for workload in WORKLOADS:
        for trace, units in ((0, e2e), (1, layer)):
            metrics = run(workload, trace)
            if sorted(metrics) != sorted(units):
                raise AssertionError(
                    f"{workload} trace={trace}: missing {sorted(set(units) - set(metrics))}, "
                    f"unexpected {sorted(set(metrics) - set(units))}")
            for name, entry in metrics.items():
                if entry["unit"] != units[name]:
                    raise AssertionError(f"{workload}: {name} unit {entry['unit']} != {units[name]}")
            if trace and workload in ("table3", "crossover"):
                coverage = metrics["obs.trace_coverage"]["value"]
                if coverage < MIN_COVERAGE:
                    raise AssertionError(f"{workload}: span coverage {coverage:.3f} < {MIN_COVERAGE}")
            print(f"ok {workload} trace={trace}: {len(metrics)} metrics", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
