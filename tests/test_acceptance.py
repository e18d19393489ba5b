"""Acceptance suite: every release criterion, checked exactly (no tolerances).

Each test prints one ``ACCEPTANCE nn PASS|FAIL`` line (visible with ``-s`` or
``-rP``); all underlying comparisons are exact rational or structural
equalities.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import islice

from flagrank import Analysis, PointClass, SymbolClass, Verdict, adapted_frame, \
    bracket_form, bracket_span, branch_classify, catalog_list, \
    classify_form_generic, coordinate_field, derived_flag, e_subdistribution, \
    get_model, lift_pair, model_eq3, model_eq4, parabolic_flag, regularity_scan, \
    sample_points, symbol_algebra_at, symbol_d_function, verify_flag_relations, \
    Chart, VectorField
from flagrank.cli import main
from flagrank.errors import LiftPreconditionFailed
from util import change_frame, rand_invertible, rand_polynomial, spans_equal, \
    transformed_frame, vf


@contextlib.contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {text}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS {text}")


def _parabolic_names():
    return ("j21", "eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")


def test_criterion_01_degenerate_model():
    with criterion(1, "mixed-jet model: growth, class, and closure relations"):
        d = get_model("j21").distribution()
        _, growth = derived_flag(d)
        assert growth.ranks == (3, 5, 6)
        scan = regularity_scan(d, n_samples=20, seed=0)
        assert scan.regular
        assert len(scan.samples) == 20 and not scan.skipped
        assert all(s.point_class is PointClass.PARABOLIC_DEG
                   for s in scan.samples)
        flag = parabolic_flag(d)
        checks = {c.name: c.holds for c in verify_flag_relations(flag)}
        for name in ("[D4,D4]=D5", "[D2,D4]=D5", "[D2,D5]=D5", "[D5,D5]=TM"):
            assert checks[name] is True
        assert all(checks.values())


def test_criterion_02_flat_g0_model():
    with criterion(2, "flat g0 PDE model: line, integrability, symbol, branch"):
        d = get_model("eq5").distribution()
        report = branch_classify(d)
        assert report.point_class is PointClass.PARABOLIC_NONDEG
        w = vf(d.chart, 0, 0, "-z", 0, 1, 0)
        assert spans_equal(list(report.flag[1].frame), [w])
        assert report.b2_integrable is True
        assert report.symbol_class is SymbolClass.G0
        assert report.verdict is Verdict.THEOREM3


def test_criterion_03_fourth_order_model():
    with criterion(3, "fourth-order PDE model: non-integrable plane, branch"):
        report = branch_classify(get_model("eq6").distribution())
        assert report.point_class is PointClass.PARABOLIC_NONDEG
        assert report.b2_integrable is False
        assert report.symbol_class is SymbolClass.G0
        assert report.verdict is Verdict.THEOREM2
        assert report.equation_type is True


def test_criterion_04_family_stability():
    with criterion(4, "parameter families: verdicts independent of F"):
        rng = random.Random(101)
        from flagrank import eq3_parameter_chart, eq4_parameter_chart
        for _ in range(3):
            f = rand_polynomial(eq3_parameter_chart(), rng)
            report = branch_classify(model_eq3(f))
            assert report.verdict is Verdict.THEOREM3
            assert report.symbol_class is SymbolClass.G0
            assert report.b2_integrable is True
        for _ in range(3):
            f = rand_polynomial(eq4_parameter_chart(), rng)
            report = branch_classify(model_eq4(f))
            assert report.verdict is Verdict.THEOREM2
            assert report.symbol_class is SymbolClass.G0
            assert report.equation_type is True


def test_criterion_05_flat_g1_model():
    with criterion(5, "flat g1 model: raw d, normalized class, bracket table"):
        d = get_model("g1_flat").distribution()
        algebra, sym_class = symbol_algebra_at(d, d.chart.origin())
        assert algebra.d_raw != 0
        assert sym_class is SymbolClass.G1
        assert algebra.d_normalized == 1
        assert algebra.constant(1, 3, 4) == 1
        assert algebra.constant(2, 3, 5) == 1
        assert algebra.constant(2, 5, 7) == 1
        assert algebra.constant(1, 2, 3) == 0
        assert algebra.constant(1, 4, 5) == 0


def test_criterion_06_lift_converse():
    with criterion(6, "pair lift: converse construction and rejection"):
        chart = Chart("J3", ("x", "p0", "p1", "p2", "p3"))
        tot = VectorField(chart, [chart.const(1), chart.var("p1"),
                                  chart.var("p2"), chart.var("p3"),
                                  chart.const(0)])
        lifted = lift_pair(tot, coordinate_field(chart, "p3"),
                           coordinate_field(chart, "p2"))
        _, growth = derived_flag(lifted)
        assert growth.ranks == (3, 5, 6)
        report = branch_classify(lifted)
        assert report.point_class is PointClass.PARABOLIC_NONDEG
        rejected = False
        try:
            lift_pair(coordinate_field(chart, "p3"), tot,
                      coordinate_field(chart, "p2"))
        except LiftPreconditionFailed:
            rejected = True
        assert rejected


def test_criterion_07_invariance_suite():
    with criterion(7, "invariance: symmetry, transformations, graded identities"):
        rng = random.Random(103)
        # (a) symmetry of the form, catalog plus ten perturbed variants
        dists = [get_model(n).distribution() for n in _parabolic_names()]
        for d in dists:
            form = bracket_form(d, adapted_frame(d))
            assert form.a12 == form.a21
        for i in range(10):
            d = dists[i % len(dists)]
            changed = change_frame(d, rand_invertible(rng, 3))
            form = bracket_form(changed, adapted_frame(changed))
            assert form.a12 == form.a21
        # (b) class and verdict invariance under frame transformations
        for name in ("eq5", "eq6", "g1_flat", "elliptic", "hyperbolic"):
            d = get_model(name).distribution()
            fr = adapted_frame(d)
            points = list(islice(sample_points(d.chart, 0), 200))
            base_class = classify_form_generic(bracket_form(d, fr), points)
            for _ in range(3):
                alpha = Fraction(rng.choice([2, 3, -1, -2]))
                beta = Fraction(rng.choice([2, 3, -1, -2]))
                fr2 = transformed_frame(fr, y_scale=alpha, z_scale=beta,
                                        basis=rand_invertible(rng, 2))
                assert classify_form_generic(bracket_form(d, fr2), points) is base_class
        for name in ("eq5", "eq6", "g1_flat"):
            d = get_model(name).distribution()
            base = branch_classify(d)
            changed = change_frame(d, rand_invertible(rng, 3))
            report = branch_classify(changed)
            assert report.verdict is base.verdict
            assert report.symbol_class is base.symbol_class
            assert report.point_class is base.point_class
        # (c) exact antisymmetry and graded Jacobi for the symbol constants
        for name in ("eq5", "eq6", "g1_flat"):
            d = get_model(name).distribution()
            algebra, _ = symbol_algebra_at(d, d.chart.origin())
            assert algebra.antisymmetry_ok()
            assert algebra.jacobi_ok()
            assert algebra.grading_ok()


def test_criterion_08_flag_relations_and_symbol_crosscheck():
    with criterion(8, "flag relations and depth-4 closure vs symbol class"):
        for name in _parabolic_names():
            d = get_model(name).distribution()
            flag = parabolic_flag(d)
            assert all(c.holds for c in verify_flag_relations(flag)), name
            if flag.branch.value == "nondegenerate":
                closed = all(
                    flag[5].echelon().contains(g.coefficients)
                    for g in bracket_span(list(flag[4].frame),
                                          list(flag[4].frame)))
                assert closed == symbol_d_function(d).is_zero(), name


def test_criterion_09_trichotomy_coverage():
    with criterion(9, "demonstration models cover elliptic and hyperbolic"):
        for name, expected in (("elliptic", PointClass.ELLIPTIC),
                               ("hyperbolic", PointClass.HYPERBOLIC)):
            d = get_model(name).distribution()
            _, growth = derived_flag(d)
            assert growth.ranks == (3, 5, 6)
            assert Analysis(d).generic_class is expected


def _run_cli_json(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


def _expected_fragment(report, spec):
    results = report["results"]
    got = {}
    if "branch" in results:
        branch = results["branch"]
        got["growth"] = branch["growth"]
        got["point_class"] = branch["point_class"]
        got["verdict"] = branch["verdict"]
        if "symbol_class" in branch:
            got["symbol_class"] = branch["symbol_class"]
            got["b2_integrable"] = branch["b2_integrable"]
        if "equation_type" in branch:
            got["equation_type"] = branch["equation_type"]
    if "growth" in results:
        got["growth"] = results["growth"]["generic"]
    if "classify" in results:
        got["point_class"] = results["classify"]["generic"]
    return {k: got.get(k) for k in spec.expected}


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    with criterion(10, "byte-identical reports and emit/analyze round trips"):
        argv = ["analyze", "--builtin", "eq5", "--tasks", "branch,scan,symbol",
                "--format", "json", "--seed", "0"]
        assert _run_cli_json(argv) == _run_cli_json(argv)
        for spec in catalog_list():
            out = io.StringIO()
            assert main(["models", "emit", spec.name], out=out) == 0
            path = tmp_path / f"{spec.name}.dist"
            path.write_text(out.getvalue(), encoding="utf-8")
            report = json.loads(_run_cli_json(
                ["analyze", str(path), "--format", "json", "--seed", "0"]))
            assert _expected_fragment(report, spec) == spec.expected, spec.name
