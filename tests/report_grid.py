"""Byte-identity grid: one sha256 over a fixed set of reports.

Run as ``python3 tests/report_grid.py`` from any checkout (pytest does not
collect it).  It imports flagrank from the checkout's ``src`` and prints one
sha256 over the exit code and exact bytes of each of

- 512 ``analyze --format json`` requests: the 8 builtins x the first 4
  points recorded per builtin in ``bench/cli_expected.json`` x seeds 0 and 5
  x the 8 task lists of ``TASK_LISTS``, default sample count;
- the 48 ``families`` benchmark reports of seeds 1, 5 and 11, rounds 0-1,

then the count of each exit code.  A change that should not alter any
report prints the same lines as its parent commit.
"""

import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402
from flagrank import branch_classify, model_eq3, model_eq4  # noqa: E402
from flagrank.cli import main  # noqa: E402
from flagrank.errors import FlagrankError  # noqa: E402

TASK_LISTS = ("growth", "classify", "scan", "flag", "symbol", "branch",
              "flag,symbol", "growth,classify,scan,flag,symbol,branch")
POINTS_PER_BUILTIN = 4
SEEDS = (0, 5)
FAMILY_SEEDS = (1, 5, 11)
FAMILY_ROUNDS = 2
FAMILY_ROUND_SIZE = 2 * inputs.RATIONAL_EVERY
FAMILIES = {"eq3": model_eq3, "eq4": model_eq4}


def analyze_requests():
    """(argv, exit code, report bytes) of each ``analyze`` request."""
    table = json.loads((ROOT / "bench" / "cli_expected.json").read_text(
        encoding="utf-8"))["points"]
    for name in sorted(table):
        for entry in table[name][:POINTS_PER_BUILTIN]:
            for seed in SEEDS:
                for tasks in TASK_LISTS:
                    argv = ["analyze", "--builtin", name, "--tasks", tasks,
                            "--point", entry["point"], "--seed", str(seed),
                            "--format", "json"]
                    out = io.StringIO()
                    code = main(argv, out=out)
                    yield argv, code, out.getvalue().encode("utf-8")


def family_reports():
    """(job, exit code, report bytes) of each ``families`` job; a job that
    raises a ``FlagrankError`` counts as exit 3 with its type and message."""
    for seed in FAMILY_SEEDS:
        for round_index in range(FAMILY_ROUNDS):
            for index in range(FAMILY_ROUND_SIZE):
                family, shape = inputs.family_job(seed, round_index, index)
                parameter = inputs.family_parameter(shape)
                try:
                    report = branch_classify(FAMILIES[family](parameter),
                                             samples=20, seed=0).to_json_dict()
                    code, text = 0, json.dumps(report, sort_keys=True)
                except FlagrankError as exc:
                    code, text = 3, f"{type(exc).__name__}: {exc}"
                yield [family, parameter], code, text.encode("utf-8")


def main_grid():
    digest = hashlib.sha256()
    codes = Counter()
    for label, rows in (("analyze", analyze_requests()),
                        ("families", family_reports())):
        for key, code, data in rows:
            codes[label, code] += 1
            digest.update(json.dumps(key).encode("utf-8") + b"\0"
                          + str(code).encode("ascii") + b"\0"
                          + hashlib.sha256(data).digest())
    print(digest.hexdigest())
    for (label, code), n in sorted(codes.items()):
        print(f"{label} exit {code}: {n}")


if __name__ == "__main__":
    main_grid()
