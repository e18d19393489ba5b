"""Catalog models, parameter families, and the pair-lift construction."""

import io
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Analysis, Chart, PointClass, Verdict, VectorField, algebra, \
    branch_classify, catalog_list, coordinate_field, derived_flag, \
    eq3_parameter_chart, eq3_source, eq4_parameter_chart, eq4_source, get_model, \
    lift_pair, load_model, model_eq3, model_eq4, parse_scalar
from flagrank.cli import main
from flagrank.errors import BadParameterSupport, LiftPreconditionFailed, \
    UnknownModel
from util import rand_polynomial, sc, vf

JET5 = Chart("J3", ("x", "p0", "p1", "p2", "p3"))


def total_derivative(extra=None):
    coeffs = [JET5.const(1), JET5.var("p1"), JET5.var("p2"), JET5.var("p3"),
              JET5.const(0) if extra is None else extra]
    return VectorField(JET5, coeffs)


def test_catalog_is_stable():
    names = [s.name for s in catalog_list()]
    assert names == ["j21", "eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat",
                     "elliptic", "hyperbolic"]
    assert get_model("j21").expected["verdict"] == "Theorem1"
    with pytest.raises(UnknownModel):
        get_model("nosuch")


def test_model_builders_agree_with_catalog():
    assert model_eq3().frame == get_model("eq5").distribution().frame
    assert model_eq4().frame == get_model("eq6").distribution().frame


def test_models_have_growth_356():
    for spec in catalog_list():
        _, growth = derived_flag(spec.distribution())
        assert growth.ranks == (3, 5, 6), spec.name


def test_demo_models_classify():
    for name, expected in (("elliptic", PointClass.ELLIPTIC),
                           ("hyperbolic", PointClass.HYPERBOLIC)):
        assert Analysis(get_model(name).distribution()).generic_class is expected


def _family_parameter(family, terms, denominator, as_ratfunc):
    """Parameter text of (coefficient, exponents) terms, over 1 + v^2 when
    ``denominator`` names v; parsed on the family's chart for a RatFunc."""
    chart = eq3_parameter_chart() if family == "eq3" else eq4_parameter_chart()
    text = " + ".join(f"{c}*" + "*".join(f"{v}^{k}" for v, k in
                                        zip(chart.variables, exps)) for c, exps in terms)
    if denominator is not None:
        text = f"({text})/(1 + {denominator}^2)"
    return parse_scalar(chart, text) if as_ratfunc else text


@st.composite
def family_members(draw):
    family = draw(st.sampled_from(("eq3", "eq4")))
    variables = ("x", "u1", "u2", "z") + (("w",) if family == "eq4" else ())
    if draw(st.booleans()):
        return family, None
    terms = draw(st.lists(st.tuples(
        st.integers(-9, 9).filter(bool),
        st.lists(st.integers(0, 2), min_size=len(variables), max_size=len(variables))),
        min_size=1, max_size=4))
    denominator = draw(st.sampled_from((None,) + variables))
    return family, _family_parameter(family, terms, denominator, draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(family_members())
def test_family_builders_match_their_model_text(member):
    # the builders make the distribution from values; reading the family's
    # text must give the same frame
    family, parameter = member
    build, source = (model_eq3, eq3_source) if family == "eq3" else (model_eq4, eq4_source)
    built = build(parameter).frame
    read = load_model(source(parameter)).primary_dist()[1].frame
    assert [f.render() for f in built] == [f.render() for f in read]


def test_family_builders_read_no_model_text(monkeypatch):
    expected = {"eq3": get_model("eq5").distribution().frame,
                "eq4": get_model("eq6").distribution().frame}

    def refuse(source):
        raise AssertionError("a family builder read model text")

    for name, module in list(sys.modules.items()):
        if name.startswith("flagrank") and vars(module).get("load_model") is load_model:
            monkeypatch.setattr(module, "load_model", refuse)
    assert model_eq3().frame == expected["eq3"]
    assert model_eq4().frame == expected["eq4"]
    assert model_eq3("x*z/(1 + u1^2)").generic_rank == 3
    assert model_eq4(eq4_parameter_chart().var("w")).generic_rank == 3


def test_eq3_family_accepts_strings_and_ratfuncs():
    park = eq3_parameter_chart()
    assert model_eq3("x*z + u1").generic_rank == 3
    assert model_eq3(park.var("u2")).generic_rank == 3
    with pytest.raises(BadParameterSupport):
        model_eq3(eq4_parameter_chart().var("w"))


def test_eq3_family_verdict_stable():
    rng = random.Random(61)
    park = eq3_parameter_chart()
    for _ in range(2):
        f = rand_polynomial(park, rng)
        report = branch_classify(model_eq3(f))
        assert report.verdict is Verdict.THEOREM3
        assert report.symbol_class.value == "g0"


def test_eq4_family_verdict_stable():
    rng = random.Random(67)
    park = eq4_parameter_chart()
    for _ in range(2):
        f = rand_polynomial(park, rng)
        report = branch_classify(model_eq4(f))
        assert report.verdict is Verdict.THEOREM2
        assert report.equation_type is True


# Members over a cubic or a several-term w denominator: w becomes u3 + y*z
# in eq4, and gcds between powers of such denominators used to run for
# seconds to minutes.
@pytest.mark.parametrize("parameter", [
    "x*u1/(2 + w^3)",
    "x*u1/(1 + w^2 + x^2)",
    "(x^3*u1 - 2*u2^2*z + w^2*x - 3*u1*w + z^3)/(1 + w^2 + x^2)",
    "x*u1/(3 - 2*w^3 + u2)",
    "(x + u1)/(2 + u2 + w^2*x)",
    "x*u1/(3 + 9*u2 - 2*u1 + 6*x*w)",
    "(9*w + 9*u2 - 9*u2*w - 9*u1 - 8*u1*w^2 - u1*z - 3*u1*z*w - 8*u1*z*w^2 - 9*x*u2"
    " - 6*x^2)/(3 - 2*w^3 + 9*u2 - 2*u1 + 6*x*w)",
], ids=["cubic", "three-term", "three-term-dense", "cubic-three-term", "w-squared-times-x",
        "five-term", "five-term-dense"])
def test_eq4_family_verdict_over_cubic_and_three_term_denominators(parameter):
    report = branch_classify(model_eq4(parameter))
    assert report.verdict is Verdict.THEOREM2
    assert report.symbol_class.value == "g0"
    assert report.equation_type is True


def test_five_term_dense_member_never_reaches_browns_gcd(monkeypatch):
    # its denominator is linear in u1 with coefficient -2, so it is a
    # certified irreducible base and every reduction against it is a trial
    # division; it took 0.62 s with gcds against its powers, 0.15 s now
    def refuse(f, g):
        raise AssertionError("Brown's gcd ran")

    monkeypatch.setattr(algebra, "_brown_gcd", refuse)
    report = branch_classify(model_eq4(
        "(9*w + 9*u2 - 9*u2*w - 9*u1 - 8*u1*w^2 - u1*z - 3*u1*z*w - 8*u1*z*w^2 - 9*x*u2"
        " - 6*x^2)/(3 - 2*w^3 + 9*u2 - 2*u1 + 6*x*w)"))
    assert report.verdict is Verdict.THEOREM2
    assert report.symbol_class.value == "g0"
    assert report.equation_type is True


def test_eq4_composite_argument():
    # the fifth parameter slot must be substituted, not read literally
    park = eq4_parameter_chart()
    d = model_eq4(park.var("w"))
    report = branch_classify(d)
    assert report.point_class is PointClass.PARABOLIC_NONDEG


def test_lift_fourth_order_jet_pair():
    lifted = lift_pair(total_derivative(),
                       coordinate_field(JET5, "p3"),
                       coordinate_field(JET5, "p2"))
    assert lifted.chart.dimension == 6
    assert lifted.chart.variables[-1] == "s"
    report = branch_classify(lifted)
    assert report.point_class is PointClass.PARABOLIC_NONDEG
    assert report.verdict is Verdict.THEOREM2
    assert report.symbol_class.value == "g0"
    assert report.equation_type is True


def test_lift_rejects_vertical_line():
    with pytest.raises(LiftPreconditionFailed):
        lift_pair(coordinate_field(JET5, "p3"), total_derivative(),
                  coordinate_field(JET5, "p2"))


def test_lift_rejects_dependent_triple():
    with pytest.raises(LiftPreconditionFailed):
        lift_pair(total_derivative(), total_derivative(),
                  coordinate_field(JET5, "p2"))


def test_lift_rejects_wrong_dimension():
    three = Chart("T", ("x", "y", "z"))
    with pytest.raises(LiftPreconditionFailed):
        lift_pair(coordinate_field(three, "x"), coordinate_field(three, "y"),
                  coordinate_field(three, "z"))


def test_lift_of_perturbed_jet_pairs_is_nondegenerate():
    rng = random.Random(71)
    for _ in range(2):
        extra = rand_polynomial(JET5, rng, max_terms=2, max_degree=1)
        lifted = lift_pair(total_derivative(extra),
                           coordinate_field(JET5, "p3"),
                           coordinate_field(JET5, "p2"))
        assert Analysis(lifted).generic_class is PointClass.PARABOLIC_NONDEG


def test_lift_third_order_style_pair_matches_flat_g0_model():
    chart = Chart("N", ("x", "p0", "p1", "p2", "w"))
    tot = VectorField(chart, [chart.const(1), chart.var("p1"), chart.var("p2"),
                              chart.const(0), chart.const(0)])
    lifted = lift_pair(tot, coordinate_field(chart, "p2"),
                       coordinate_field(chart, "w"))
    report = branch_classify(lifted)
    base = branch_classify(model_eq3())
    assert report.verdict is base.verdict is Verdict.THEOREM3
    assert report.symbol_class is base.symbol_class
    assert report.b2_integrable == base.b2_integrable


def test_lift_fiber_name_avoids_collision():
    chart = Chart("S", ("s", "p0", "p1", "p2", "p3"))
    tot = VectorField(chart, [chart.const(1), chart.var("p1"), chart.var("p2"),
                              chart.var("p3"), chart.const(0)])
    lifted = lift_pair(tot, coordinate_field(chart, "p3"),
                       coordinate_field(chart, "p2"))
    assert lifted.chart.variables[-1] == "s1"


def emit(name):
    out = io.StringIO()
    assert main(["models", "emit", name], out=out) == 0
    return out.getvalue()


def test_emit_is_reparseable_and_stable():
    for spec in catalog_list():
        text = emit(spec.name)
        assert text == spec.source
        model = load_model(text)
        assert model.primary_dist()[1].generic_rank == 3
        assert emit(spec.name) == text
