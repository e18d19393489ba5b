"""Record the points and canonical-JSON digests that catalog_cli replays.

Run from the repository root:

    python3 bench/record_cli.py

For each builtin model it draws candidate points from
``inputs.candidate_points`` and keeps the first POINTS_PER_MODEL whose request
passes every verdict check of ``workloads.check_cli_output``; a point where a
pointwise task legitimately refuses (growth drop, pole) is skipped.  The file
pins the JSON bytes of the code it was recorded with: re-record only with a
change that is meant to alter the report.
"""

from __future__ import annotations

import io
import json
import sys

import inputs
import workloads

POINTS_PER_MODEL = 6
MAX_CANDIDATES = 60


def main():
    if not workloads.use_checkout_source():
        print("flagrank sources not found under src/", file=sys.stderr)
        return 2
    import flagrank.cli
    import flagrank.models
    cli = workloads.WORKLOADS["catalog_cli"]
    points = {}
    for name in cli.models:
        spec = flagrank.models.get_model(name)
        dimension = spec.model().chart.dimension
        kept = []
        candidates = inputs.candidate_points(name, dimension)
        for _ in range(MAX_CANDIDATES):
            point = next(candidates)
            out = io.StringIO()
            code = flagrank.cli.main(cli.argv(name, point), out=out)
            problems, _ = workloads.check_cli_output(spec, code, out.getvalue(), None)
            if problems:
                print(f"skip {name} {point}: {problems[0]}", file=sys.stderr)
                continue
            entry = {"point": point}
            if code == 0:
                entry["sha256"] = workloads.sha256(out.getvalue())
            kept.append(entry)
            if len(kept) == POINTS_PER_MODEL:
                break
        if len(kept) < POINTS_PER_MODEL:
            print(f"{name}: only {len(kept)} usable points", file=sys.stderr)
            return 1
        points[name] = kept
        print(f"{name}: {len(kept)} points", file=sys.stderr)
    payload = {"source_sha256": workloads.source_digest(), "points": points}
    workloads.CLI_TABLE.write_text(json.dumps(payload, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
