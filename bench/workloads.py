"""The three workloads: seeded set-up, one job, and the check of its output.

Each workload keeps the flagrank modules it calls in its state and looks the
functions up on them at call time, so the tracer's rebinding reaches them.
flagrank is imported inside ``setup`` because its import is part of the
measured set-up time.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import traceback
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"

# ``note`` marks an outcome that is correct but worth counting, such as an
# expected rejection.
Outcome = namedtuple("Outcome", "ok digest points error note", defaults=(None,))

CLI_TABLE = Path(__file__).with_name("cli_expected.json")
PARABOLIC_TASKS = "growth,classify,scan,flag,symbol,branch"
DEMO_TASKS = "growth,classify,scan"
SCAN_SAMPLES = 200


def use_checkout_source():
    """Put the checkout's ``src`` first on sys.path; False when it is missing."""
    if not (SRC / "flagrank" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest():
    """sha256 over ``src/flagrank/*.py``: which engine code a result measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "flagrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _failure(message):
    return Outcome(False, None, 0, message)


def _crash(what):
    """Failure of a job that raised, with the innermost frames of the traceback."""
    return _failure(f"{what}: {traceback.format_exc(limit=-3)}")


def _scan_problems(scan, point_class, expected_samples=None):
    problems = []
    if scan["verdict"] != "regular":
        problems.append(f"scan verdict {scan['verdict']}")
    if scan["generic_class"] != point_class:
        problems.append(f"generic class {scan['generic_class']}")
    if any(s["class"] != point_class for s in scan["samples"]):
        problems.append("a sample's class differs from the expected class")
    if expected_samples is not None and len(scan["samples"]) != expected_samples:
        problems.append(f"{len(scan['samples'])} samples")
    return problems


class CatalogCli:
    """In-process ``flagrank analyze --builtin`` requests over the catalog.

    A round is one request per model; every round repeats the same requests,
    as a user re-analysing the same models would.
    """

    name = "catalog_cli"
    models = ("j21", "eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat",
              "elliptic", "hyperbolic")
    round_size = len(models)

    def setup(self, seed):
        import flagrank.cli
        import flagrank.models
        table = load_cli_table()
        specs = {name: flagrank.models.get_model(name) for name in self.models}
        digests = {name: {e["point"]: e.get("sha256") for e in table[name]}
                   for name in self.models}
        return SimpleNamespace(
            cli=flagrank.cli, specs=specs, digests=digests,
            kinds=inputs.cli_kinds(seed, self.models, table))

    @staticmethod
    def job(state, round_index, index):
        return state.kinds[index]

    @staticmethod
    def argv(name, point):
        tasks = DEMO_TASKS if name in ("elliptic", "hyperbolic") else PARABOLIC_TASKS
        return ["analyze", "--builtin", name, "--tasks", tasks,
                "--point", point, "--samples", "20", "--seed", "0",
                "--format", "json"]

    def run(self, state, job):
        name, point = job
        out = io.StringIO()
        try:
            code = state.cli.main(self.argv(name, point), out=out)
        except Exception:
            return _crash(f"{name} {point}")
        text = out.getvalue()
        problems, points = check_cli_output(state.specs[name], code, text,
                                            state.digests[name][point])
        if problems:
            return _failure(f"{name} {point}: " + "; ".join(problems))
        rejection = EXPECTED_REJECTIONS.get(name)
        note = f"expected rejection: {name} {rejection}" if rejection else None
        return Outcome(True, sha256(text), points, None, note)


# j21 is degenerate parabolic: its symbol is undefined, and the symbol task
# stops the whole request with exit 3 and a ConsistencyError object.  That
# rejection is the expected outcome; its bytes are not pinned, its shape is.
EXPECTED_REJECTIONS = {"j21": "ConsistencyError"}


def check_cli_output(spec, code, text, digest):
    """(problems, classified sample points) of one ``analyze`` response.

    Verdicts are compared with the catalog's expected report; ``digest``
    (when not None) pins the canonical JSON bytes.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit {code}, output is not JSON"], 0
    rejection = EXPECTED_REJECTIONS.get(spec.name)
    if rejection is not None:
        error = report.get("error")
        if (code != 3 or set(report) != {"schema", "error"}
                or report["schema"] != 1 or not isinstance(error, dict)
                or set(error) != {"type", "message"}
                or error["type"] != rejection
                or not isinstance(error["message"], str) or not error["message"]):
            return [f"expected exit 3 with a {rejection} object, "
                    f"got exit {code}: {text[:200]!r}"], 0
        return [], 0
    if code != 0:
        return [f"exit {code}: {text[:200]!r}"], 0
    expected = spec.expected
    results = report["results"]
    problems = []
    if results["growth"]["generic"] != expected["growth"]:
        problems.append(f"growth {results['growth']['generic']}")
    classify = results["classify"]
    if classify["generic"] != expected["point_class"]:
        problems.append(f"generic class {classify['generic']}")
    if classify["at_point"]["class"] != expected["point_class"]:
        problems.append(f"class at point {classify['at_point']['class']}")
    problems += _scan_problems(results["scan"], expected["point_class"])
    points = len(results["scan"]["samples"])
    if "branch" in results:
        branch = results["branch"]
        for key in ("verdict", "symbol_class", "b2_integrable", "equation_type"):
            if key in expected and branch.get(key) != expected[key]:
                problems.append(f"branch {key} {branch.get(key)!r}")
        problems += _scan_problems(branch["scan"], expected["point_class"])
        points += len(branch["scan"]["samples"])
    if "symbol" in results and results["symbol"]["class"] != expected["symbol_class"]:
        problems.append(f"symbol class {results['symbol']['class']}")
    if digest is not None and sha256(text) != digest:
        problems.append("canonical JSON differs from the recorded digest")
    return problems, points


def load_cli_table():
    return json.loads(CLI_TABLE.read_text(encoding="utf-8"))["points"]


# eq3/eq4 pairs per round of families; the last one is rational.
FAMILY_PAIRS = inputs.RATIONAL_EVERY

# What the paper's family theorems fix for every admissible parameter.
FAMILY_EXPECTED = {
    "eq3": {"growth": "(3,5,6)", "point_class": "parabolic-nondegenerate",
            "symbol_class": "g0", "b2_integrable": True, "verdict": "Theorem3"},
    "eq4": {"growth": "(3,5,6)", "point_class": "parabolic-nondegenerate",
            "symbol_class": "g0", "b2_integrable": False, "verdict": "Theorem2",
            "equation_type": True},
}


class Families:
    """``branch_classify`` on eq3/eq4 family members with seeded parameters.

    A round is FAMILY_PAIRS eq3/eq4 pairs, the last one rational.  Every
    job has its own parameter (``inputs.family_job``), so no operand repeats
    within a run.
    """

    name = "families"
    round_size = 2 * FAMILY_PAIRS

    def setup(self, seed):
        import flagrank.models
        import flagrank.parabolic
        return SimpleNamespace(models=flagrank.models,
                               parabolic=flagrank.parabolic, seed=seed)

    @staticmethod
    def job(state, round_index, index):
        family, shape = inputs.family_job(state.seed, round_index, index)
        return family, inputs.family_parameter(shape)

    def run(self, state, job):
        family, parameter = job
        build = (state.models.model_eq3 if family == "eq3"
                 else state.models.model_eq4)
        try:
            report = state.parabolic.branch_classify(
                build(parameter), samples=20, seed=0).to_json_dict()
        except Exception:
            return _crash(f"{family} {parameter}")
        problems = [f"{key} {report.get(key)!r}"
                    for key, value in FAMILY_EXPECTED[family].items()
                    if report.get(key) != value]
        problems += _scan_problems(report["scan"],
                                   FAMILY_EXPECTED[family]["point_class"])
        if problems:
            return _failure(f"{family} {parameter}: " + "; ".join(problems))
        return Outcome(True, sha256(canonical(report)),
                       len(report["scan"]["samples"]), None)


class DenseScan:
    """Long ``regularity_scan`` runs: pointwise evaluation dominates.

    A round is one scan per model; every scan of a run has its own seed.
    """

    name = "dense_scan"
    models = ("eq6", "eq4_z", "j21", "g1_flat", "elliptic", "hyperbolic")
    round_size = len(models)

    def setup(self, seed):
        import flagrank.classification
        import flagrank.models
        specs = {name: flagrank.models.get_model(name) for name in self.models}
        return SimpleNamespace(
            classification=flagrank.classification,
            dists={name: spec.distribution() for name, spec in specs.items()},
            classes={name: spec.expected["point_class"]
                     for name, spec in specs.items()},
            seed=seed)

    def job(self, state, round_index, index):
        return (self.models[index],
                inputs.scan_seed(state.seed, round_index, index))

    def run(self, state, job):
        name, scan_seed = job
        try:
            report = state.classification.regularity_scan(
                state.dists[name], n_samples=SCAN_SAMPLES,
                seed=scan_seed).to_json_dict()
        except Exception:
            return _crash(f"{name} seed {scan_seed}")
        problems = _scan_problems(report, state.classes[name], SCAN_SAMPLES)
        if problems:
            return _failure(f"{name} seed {scan_seed}: " + "; ".join(problems))
        return Outcome(True, sha256(canonical(report)), SCAN_SAMPLES, None)


WORKLOADS = {w.name: w for w in (CatalogCli(), Families(), DenseScan())}
