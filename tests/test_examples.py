"""Smoke tests: the example scripts must run end to end.

Examples rot silently when APIs drift; running the fast ones in a
subprocess keeps them honest. The slowest examples (full scheme
comparison, city-scale scan) are exercised indirectly by the benchmark
suite and skipped here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"

FAST_EXAMPLES = [
    "quickstart.py",
    "osm_import.py",
    "perimeter_control.py",
    "corridor_study.py",
    "congestion_monitoring.py",
]

#: stdout lines that prove an example reached its last stage
EXPECTED_OUTPUT = {
    # scraped the partition server's /metrics and /quality over HTTP
    "congestion_monitoring.py": ("updates observed", "quality: ANS"),
}


def _example_env() -> dict:
    """Spawn environment with ``src`` on PYTHONPATH.

    The examples import ``repro`` without the package being installed;
    the subprocess does not inherit pytest's own import path, so the
    repo's ``src`` directory must be injected explicitly.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    parts = [str(SRC)] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, tmp_path):
    path = EXAMPLES / script
    assert path.exists(), f"example {script} missing"
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
        env=_example_env(),
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{proc.stdout[-2000:]}"
        f"\n--- stderr ---\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"
    for marker in EXPECTED_OUTPUT.get(script, ()):
        assert marker in proc.stdout, (script, marker)


def test_all_examples_have_docstrings():
    for script in EXAMPLES.glob("*.py"):
        first = script.read_text(encoding="utf-8").lstrip()
        assert first.startswith('"""'), f"{script.name} lacks a docstring"


def test_examples_inventory():
    """The README promises at least these examples."""
    names = {p.name for p in EXAMPLES.glob("*.py")}
    promised = {
        "quickstart.py",
        "peak_hour_analysis.py",
        "scheme_comparison.py",
        "city_scale_partitioning.py",
        "congestion_monitoring.py",
        "corridor_study.py",
        "perimeter_control.py",
        "osm_import.py",
    }
    assert promised <= names
