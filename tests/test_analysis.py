"""One Analysis per distribution: stages are built once and shared exactly."""

import io
import json
import sys
from pathlib import Path

import pytest

from flagrank import algebra, branch_classify, calculus, catalog_list, \
    classification, distribution, e_subdistribution, get_model, linalg, model_eq3, \
    parabolic, parabolic_flag
from flagrank.cli import main
from util import SINGULAR_SRC

PARABOLIC_TASKS = ("growth", "classify", "scan", "flag", "symbol", "branch")
DEMO_TASKS = ("growth", "classify", "scan")
POINT = "(1, 1/2, -1, 2, 0, 1)"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def analyze(name, tasks):
    out = io.StringIO()
    code = main(["analyze", "--builtin", name, "--tasks", ",".join(tasks),
                 "--point", POINT, "--samples", "8", "--seed", "3",
                 "--format", "json"], out=out)
    return code, json.loads(out.getvalue())


def record_calls(monkeypatch, module, name):
    """Rebind ``name`` in every flagrank module; returns each call's arguments."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("flagrank") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def test_six_task_request_builds_each_stage_once(monkeypatch):
    derived = record_calls(monkeypatch, distribution, "derived_flag")
    frames = record_calls(monkeypatch, classification, "AdaptedFrame")
    forms = record_calls(monkeypatch, classification, "bracket_form")
    scans = record_calls(monkeypatch, classification, "RegularityReport")
    flags = record_calls(monkeypatch, parabolic, "ParabolicFlag")
    code, report = analyze("eq6", PARABOLIC_TASKS)
    assert code == 0
    assert report["results"]["branch"]["verdict"] == "Theorem2"
    counts = [len(derived), len(frames), len(forms), len(scans), len(flags)]
    assert counts == [2, 1, 1, 1, 1]
    dist, sub = derived[0][0], derived[1][0]
    assert dist == get_model("eq6").distribution()
    assert sub == e_subdistribution(dist, parabolic_flag(dist))


@pytest.mark.parametrize("name", [spec.name for spec in catalog_list()])
def test_shared_stages_match_single_task_requests(name):
    tasks = DEMO_TASKS if name in ("elliptic", "hyperbolic") else PARABOLIC_TASKS
    single = {task: analyze(name, [task]) for task in tasks}
    failing = [task for task in tasks if single[task][0] != 0]
    code, report = analyze(name, tasks)
    if failing:
        # The request stops at its first failing task, with that task's error.
        assert (code, report) == single[failing[0]]
        code, report = analyze(name, [t for t in tasks if t not in failing])
    assert code == 0
    for task in tasks:
        if task not in failing:
            assert report["results"][task] == single[task][1]["results"][task]


def test_branch_after_flag_on_the_same_distribution():
    for name in ("eq6", "j21"):
        fresh = branch_classify(get_model(name).distribution()).to_json_dict()
        dist = get_model(name).distribution()
        parabolic_flag(dist)
        assert branch_classify(dist).to_json_dict() == fresh


def test_eq6_branch_brackets_each_pair_once(monkeypatch):
    # 175 brackets and 5 kernel solves when every ordered pair was bracketed
    # and the form and d-function were solved in their frames
    dist = get_model("eq6").distribution()
    brackets = record_calls(monkeypatch, calculus, "lie_bracket")
    solves = record_calls(monkeypatch, linalg, "solve_in_span")
    parabolic.Analysis(dist).branch
    assert len(brackets) <= 93
    assert not solves


@pytest.mark.parametrize("name, most", [("eq6", 7), ("j21", 10)])
def test_flag_relations_bracket_each_nested_pair_once(monkeypatch, name, most):
    # 38 brackets for eq6 when every relation bracketed its own pair of
    # stratum frames; the table brackets pairs of the nested frame f1..f5,
    # which has 10 pairs in all
    flag = parabolic_flag(get_model(name).distribution())
    brackets = record_calls(monkeypatch, calculus, "lie_bracket")
    assert all(check.holds for check in parabolic.verify_flag_relations(flag))
    assert 0 < len(brackets) <= most


def test_eq6_branch_builds_each_sample_point_once(monkeypatch):
    # the scan, the completely-non-degenerate test and the symbol sample
    # each drew and built the seed's points again
    points = record_calls(monkeypatch, algebra, "PointQ")
    parabolic.Analysis(get_model("eq6").distribution()).branch
    coordinates = [tuple(coords) for _, coords in points]
    assert len(coordinates) >= 20
    assert len(set(coordinates)) == len(coordinates)


def analyze_singular(monkeypatch, seed):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SINGULAR_SRC))
    out = io.StringIO()
    code = main(["analyze", "-", "--tasks", "classify,scan", "--seed", str(seed),
                 "--format", "json"], out=out)
    assert code == 0
    return json.loads(out.getvalue())["results"]


@pytest.mark.parametrize("seed", range(8))
def test_classify_and_scan_read_the_request_seed(monkeypatch, seed):
    # the generic class of classify (and of the flag) read seed 0 whatever
    # the request's seed, while the scan read the request's; on this model
    # the two disagreed at seeds 1, 2, 6 and 7
    results = analyze_singular(monkeypatch, seed)
    assert results["classify"]["generic"] == results["scan"]["generic_class"]


def test_classify_and_scan_build_each_sample_point_once(monkeypatch):
    # the generic class drew the seed's points in a stream of its own, apart
    # from the scan's
    points = record_calls(monkeypatch, algebra, "PointQ")
    results = analyze_singular(monkeypatch, 1)
    assert results["classify"]["generic"] == "hyperbolic"
    coordinates = [tuple(coords) for _, coords in points]
    assert len(coordinates) >= 20
    assert len(set(coordinates)) == len(coordinates)


def test_eq6_branch_differentiates_each_coefficient_once(monkeypatch):
    # 153 polynomial derivatives when VectorField.apply differentiated each
    # coefficient by every coordinate in every bracket it took part in, and
    # 48 while the symbol stage differentiated its frame's numerators and
    # denominators a second time
    dist = get_model("eq6").distribution()
    calls = []
    derivative = algebra.Polynomial.derivative

    def counted(poly, var):
        calls.append(var)
        return derivative(poly, var)

    monkeypatch.setattr(algebra.Polynomial, "derivative", counted)
    parabolic.Analysis(dist).branch
    assert len(calls) <= 24


def test_eq6_branch_runs_few_gcds(monkeypatch):
    # 324 gcds when sums over a denominator of one, or over two equal
    # denominators, and products with a denominator of one each ran poly_gcd
    dist = get_model("eq6").distribution()
    gcds = record_calls(monkeypatch, algebra, "poly_gcd")
    parabolic.Analysis(dist).branch
    assert len(gcds) <= 9


def test_rational_family_member_runs_few_gcds(monkeypatch):
    # 76 gcds when every numerator met a gcd against a power of 1 + z^2; a
    # factored denominator holds 1 + z^2 as a certified irreducible base,
    # each reduction against it is a trial division, and pivots' reciprocals
    # are split into squarefree bases only where a gcd needs it
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    family, shape = inputs.family_job(1, 0, 6)
    assert family == "eq3" and shape[1] == "z"
    model = model_eq3(inputs.family_parameter(shape))
    gcds = record_calls(monkeypatch, algebra, "poly_gcd")
    assert branch_classify(model, samples=20, seed=0).verdict.value == "Theorem3"
    assert len(gcds) == 0


def test_eq6_symbol_at_evaluates_each_monomial_once_per_point(monkeypatch):
    # the class check, the symbol frame's values and its first jets at a
    # point all read its monomial values; each (point, monomial) pair is
    # computed once
    dist = get_model("eq6").distribution()
    computed = []
    reads = []
    monomial = algebra.PointQ._monomial
    homogenized = algebra.PointQ.homogenized

    def counted_monomial(point, key):
        computed.append((point.coordinates, key))
        return monomial(point, key)

    def counted_homogenized(point, poly):
        reads.append(len(poly.terms))
        return homogenized(point, poly)

    monkeypatch.setattr(algebra.PointQ, "_monomial", counted_monomial)
    monkeypatch.setattr(algebra.PointQ, "homogenized", counted_homogenized)
    analysis = parabolic.Analysis(dist)
    for coords in ((1, 1, 1, 1, 1, 1), (2, -1, 1, 3, 1, -2)):
        _, symbol_class = analysis.symbol_at(dist.chart.point(coords))
        assert symbol_class is parabolic.SymbolClass.G0
    assert computed and len(computed) == len(set(computed))
    assert sum(reads) > 2 * len(computed)
