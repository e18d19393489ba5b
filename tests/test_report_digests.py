"""Byte pin: the catalog requests recorded for the benchmark replay exactly.

``bench/cli_expected.json`` holds, per builtin model, the points its
benchmark requests use and the sha256 of each canonical JSON report.  Any
change to a report's bytes fails here, not only in the benchmark.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from flagrank.cli import main

TABLE = Path(__file__).resolve().parent.parent / "bench" / "cli_expected.json"
PARABOLIC_TASKS = "growth,classify,scan,flag,symbol,branch"
DEMO_TASKS = "growth,classify,scan"


def _requests():
    points = json.loads(TABLE.read_text(encoding="utf-8"))["points"]
    return [pytest.param(name, entry["point"], entry.get("sha256"),
                         id=f"{name}-{entry['point']}")
            for name in sorted(points) for entry in points[name]]


@pytest.mark.parametrize("name, point, digest", _requests())
def test_recorded_report_bytes(name, point, digest):
    tasks = DEMO_TASKS if name in ("elliptic", "hyperbolic") else PARABOLIC_TASKS
    out = io.StringIO()
    code = main(["analyze", "--builtin", name, "--tasks", tasks, "--point", point,
                 "--samples", "20", "--seed", "0", "--format", "json"], out=out)
    text = out.getvalue()
    if name == "j21":
        # degenerate parabolic: the symbol task stops the request
        assert digest is None
        report = json.loads(text)
        assert code == 3
        assert set(report) == {"schema", "error"}
        assert report["error"]["type"] == "ConsistencyError"
        assert report["error"]["message"]
    else:
        assert code == 0
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
