"""Benchmark of the flagrank engine: closed-loop, single-process workloads.

Run from the repository root:

    python3 bench/run.py --workload catalog_cli --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

A run repeats rounds with the same mix of jobs (one per model, or four
eq3/eq4 pairs) until ``--seconds`` are up.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` runs rounds untraced for half the
time, replays the same rounds with every layer wrapped (see tracing.py),
reports the per-layer metrics and checks that both passes produced identical
outputs.  ``--smoke`` runs one round of every workload, untraced and traced,
and checks the same.

The last line of standard output is the result object; the line before it
records the seed, the environment and the details behind the metrics.  Both
are also written to ``bench/results/``.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 9
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per model of every workload, traced and untraced")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    return args


# One executed job: its wall seconds and Outcome.
Record = namedtuple("Record", "seconds outcome")


def run_pass(workload, state, seconds=None, rounds=None, tracer=None,
             between_rounds=None):
    """Run whole rounds until ``rounds`` rounds are done, or until another
    round would take the time spent in rounds more than half a round past
    ``seconds``.  ``between_rounds(seconds in rounds so far)`` is called
    before each round; its time is not counted.

    Returns ([Record] per job, [wall seconds] per round)."""
    records = []
    walls = []
    while True:
        round_index = len(walls)
        if between_rounds is not None:
            between_rounds(sum(walls))
        round_start = perf_counter()
        for kind in range(workload.round_size):
            job = workload.job(state, round_index, kind)
            finish = tracer.start_job(len(records)) if tracer is not None else None
            t0 = perf_counter()
            outcome = workload.run(state, job)
            elapsed = perf_counter() - t0
            if finish is not None:
                finish()
            records.append(Record(elapsed, outcome))
        walls.append(perf_counter() - round_start)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif sum(walls) + walls[-1] / 2 >= seconds:
            break
    return records, walls


def traced_replay(workload, seed, rounds):
    """Set up again and run the first ``rounds`` rounds with every layer traced.

    Returns (tracer, records, wall seconds, names not restored)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        finish = tracer.start_job("setup", counted=False)
        state = workload.setup(seed)
        finish()
        records, walls = run_pass(workload, state, rounds=rounds, tracer=tracer)
    finally:
        not_restored = tracer.uninstall()
    return tracer, records, sum(walls), not_restored


def mismatches(untraced, traced):
    """Ids of jobs that passed in both passes with different outputs."""
    return [i for i, (a, b) in enumerate(zip(untraced, traced))
            if a.outcome.ok and b.outcome.ok and a.outcome.digest != b.outcome.digest]


def failures(records):
    return [r.outcome.error for r in records if not r.outcome.ok]


class SetupProbes:
    """Set-up times measured in fresh interpreters, spread over a run.

    ``due(elapsed)`` takes samples until their share of SETUP_REPEATS catches
    up with ``elapsed``'s share of ``seconds``; ``finish`` takes the rest.
    Spreading them keeps one spell of load on the machine from moving all of
    them at once."""

    def __init__(self, name, seed, seconds):
        self.argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
                     "--workload", name, "--seed", str(seed)]
        self.seconds = seconds
        self.samples = []

    def _probe(self):
        done = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, check=True)
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])

    def due(self, elapsed):
        while len(self.samples) < min(SETUP_REPEATS * elapsed / self.seconds,
                                      SETUP_REPEATS):
            self._probe()

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self._probe()
        return self.samples


def tail(times):
    """Highest-percentile job time with TAIL_BEYOND jobs beyond it.

    Returns (seconds, percentile, jobs beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(records, walls, setup_samples):
    """The end-to-end metrics of an untraced pass, and the details behind them.

    Timings are the times the jobs ran in, over the whole pass.  On a machine
    whose speed comes and goes in bursts, a median or a rate over every job
    of a run averages the bursts; each kind's fastest repeat depends on the
    luckiest moment of the run and spread more between runs (see README.md)."""
    times = [r.seconds for r in records]
    n = len(records)
    wall = sum(walls)
    failed = len(failures(records))
    tail_s, percentile, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (n / wall, "1/s"),
        "points_per_s": (sum(r.outcome.points for r in records) / wall, "1/s"),
        "ok_share": ((n - failed) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    details = {"jobs": n, "rounds": len(walls), "wall_s": wall,
               "failed_share": failed / n, "tail_percentile": percentile,
               "tail_jobs_beyond": beyond, "setup_s_samples": setup_samples,
               "round_s": walls, "job_s": times}
    return metrics, details


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": workloads.source_digest(),
        "threads": threading.active_count(),
    }


def measure(args):
    workload = workloads.WORKLOADS[args.workload]
    start = perf_counter()
    state = workload.setup(args.seed)
    setup_here = perf_counter() - start
    info = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "setup_s_this_process": setup_here}
    RESULTS.mkdir(exist_ok=True)
    bad = not_restored = []
    if args.trace == 0:
        probes = SetupProbes(workload.name, args.seed, args.seconds)
        records, walls = run_pass(workload, state, seconds=args.seconds,
                                  between_rounds=probes.due)
        values, details = end_to_end(records, walls, probes.finish())
        info.update(details)
        all_records = records
    else:
        records, walls = run_pass(workload, state, seconds=args.seconds / 2)
        wall = sum(walls)
        tracer, traced, traced_wall, not_restored = traced_replay(
            workload, args.seed, len(walls))
        bad = mismatches(records, traced)
        traced_metrics = tracer.metrics(traced_wall / wall - 1)
        values = {name: (traced_metrics[name], unit)
                  for name, unit in tracing.metric_names()}
        spans = RESULTS / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        info.update({"jobs": len(records), "rounds": len(walls),
                     "untraced_wall_s": wall,
                     "traced_wall_s": traced_wall, "output_mismatches": bad,
                     "not_restored": not_restored,
                     "spans_file": str(spans.relative_to(ROOT))})
        all_records = records + traced
    errors = failures(all_records)
    notes = [r.outcome.note for r in all_records if r.outcome.note]
    info.update({"failures": errors[:5],
                 "notes": {n: notes.count(n) for n in sorted(set(notes))},
                 "env": environment()})
    result = {
        "correct": not (errors or bad or not_restored),
        "attempted": len(all_records),
        "failed": len(errors) + len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps({k: v for k, v in info.items() if k not in ("job_s", "round_s")},
                     sort_keys=True))
    print(json.dumps(result))
    return 0


def smoke():
    ok = True
    for workload in workloads.WORKLOADS.values():
        state = workload.setup(0)
        records, _ = run_pass(workload, state, rounds=1)
        _, traced, _, not_restored = traced_replay(workload, 0, 1)
        errors = failures(records) + failures(traced)
        bad = mismatches(records, traced)
        passed = not errors and not bad and not not_restored
        ok = ok and passed
        print(f"{workload.name}: {len(records)} jobs, "
              f"{'PASS' if passed else 'FAIL'}"
              + "".join(f"\n  {e}" for e in errors)
              + (f"\n  traced output differs on jobs {bad}" if bad else "")
              + (f"\n  not restored: {not_restored}" if not_restored else ""))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not workloads.use_checkout_source():
        print(f"flagrank sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        start = perf_counter()
        workloads.WORKLOADS[args.workload].setup(args.seed)
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0
    if args.smoke:
        return smoke()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
