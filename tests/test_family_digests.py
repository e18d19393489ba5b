"""Byte pin: rational eq3/eq4 family members report exactly as recorded.

``rational_family_digests.json`` holds, per member with a parameter over
1 + v^2, the sha256 of its canonical ``branch_classify`` report (JSON with
sorted keys, as the benchmark hashes it).  Brackets of these members sum
products over powers of 1 + v^2, so any change to how such sums are reduced
that alters a byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flagrank import branch_classify, model_eq3, model_eq4

TABLE = Path(__file__).with_name("rational_family_digests.json")
BUILDERS = {"eq3": model_eq3, "eq4": model_eq4}


def _members():
    reports = json.loads(TABLE.read_text(encoding="utf-8"))["reports"]
    params = []
    for entry in reports:
        denominator = entry["parameter"].rsplit("(", 1)[1].rstrip(")")
        params.append(pytest.param(entry["family"], entry["parameter"], entry["sha256"],
                                   id=f"{entry['family']}-over-{denominator}"))
    return params


@pytest.mark.parametrize("family, parameter, digest", _members())
def test_rational_family_report_bytes(family, parameter, digest):
    report = branch_classify(BUILDERS[family](parameter), samples=20, seed=0)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
