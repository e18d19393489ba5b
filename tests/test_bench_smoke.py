"""The benchmark still runs: every name it resolves on the package exists.

``bench/run.py --smoke`` runs one round of each workload, untraced and with
every traced layer wrapped by name, so a deleted or renamed name that the
bench uses fails here instead of only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes_every_workload():
    result = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    for workload in ("catalog_cli", "families", "dense_scan"):
        assert any(line.startswith(f"{workload}: ") and line.endswith(", PASS")
                   for line in lines), result.stdout
