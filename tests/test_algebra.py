"""Exact polynomial and rational-function arithmetic."""

import io
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagrank import Chart, Polynomial, RatFunc, catalog_list, cli
from flagrank.algebra import _heuristic_gcd, _prs_entry, poly_gcd
from flagrank.errors import ChartMismatch, DivisionByZero, PoleAtPoint, UnknownVariable
from util import ref_add, ref_derivative, ref_div, ref_mul, ref_neg, ref_sub, sc, \
    sparse_ratfuncs

CH = Chart("A", ("x", "y", "z"))
CH6 = Chart("B", ("u1", "u2", "u3", "x", "y", "z"))


def test_add_cancellation():
    f = sc(CH, "x/y")
    assert f + (1 - f) == 1


def test_gcd_reduction_on_construction():
    f = sc(CH, "(x^2 - 1)/(x - 1)")
    assert f == sc(CH, "x + 1")
    assert f.den.is_one()


def test_multiply_by_denominator():
    f = sc(CH6, "u2/z") * sc(CH6, "z")
    assert f == sc(CH6, "u2")


def test_division_by_zero_function():
    with pytest.raises(DivisionByZero):
        sc(CH, "x") / CH.zero()
    with pytest.raises(DivisionByZero):
        RatFunc(Polynomial.one(CH), Polynomial.zero(CH))


def test_derivative_product():
    assert sc(CH, "x^2*y").derivative("x") == sc(CH, "2*x*y")


def test_derivative_quotient():
    assert sc(CH, "1/z").derivative("z") == sc(CH, "-1/z^2")


def test_derivative_model_coefficient():
    f = sc(CH6, "y*u3 + y^2*z")
    assert f.derivative("y") == sc(CH6, "u3 + 2*y*z")


def test_derivative_unknown_variable():
    with pytest.raises(UnknownVariable):
        sc(CH, "x").derivative("w")


def test_evaluate_basic():
    p = CH.point((1, 3, 0))
    assert sc(CH, "(x + y)/2").evaluate(p) == 2


def test_evaluate_pole():
    with pytest.raises(PoleAtPoint):
        sc(CH, "1/x").evaluate(CH.point((0, 1, 1)))


def test_evaluate_model_coefficient_at_origin():
    assert sc(CH6, "u3 + y*z").evaluate(CH6.origin()) == 0


def test_chart_mismatch():
    with pytest.raises(ChartMismatch):
        sc(CH, "x") + sc(CH6, "x")


def test_canonical_form_construction_order():
    a = (sc(CH, "x") + sc(CH, "y")) * (sc(CH, "x") - sc(CH, "y"))
    b = sc(CH, "x^2") - sc(CH, "y^2")
    assert a == b
    assert a.render() == b.render()
    assert hash(a) == hash(b)


def test_canonical_zero_representation():
    f = sc(CH, "x/y") - sc(CH, "x/y")
    assert f.is_zero()
    assert f.num == Polynomial.zero(CH)
    assert f.den.is_one()


def test_denominator_sign_normalized():
    f = sc(CH, "x") / sc(CH, "-y")
    assert f.den == Polynomial.variable(CH, "y")
    assert f == sc(CH, "(-x)/y")


def test_render_graded_lex_descending():
    f = sc(CH, "1 + x + y^2*x - 3*z")
    assert f.render() == "x*y^2 + x - 3*z + 1"


def test_render_fraction():
    assert sc(CH, "(x + 1)/(2*y)").render() == "(x + 1)/(2*y)"
    assert sc(CH, "-1/2").render() == "(-1)/(2)"


def test_power_semantics():
    f = sc(CH, "x + y")
    assert f ** 0 == 1
    assert f ** 2 == f * f
    assert f ** -1 == 1 / f
    with pytest.raises(DivisionByZero):
        CH.zero() ** -1


def test_substitute_composite_argument():
    source = Chart("P", ("w",))
    f = source.var("w") ** 2 + 1
    image = f.substitute(CH6, {"w": sc(CH6, "u3 + y*z")})
    assert image == sc(CH6, "(u3 + y*z)^2 + 1")


def test_poly_gcd_content_and_structure():
    x = Polynomial.variable(CH, "x")
    y = Polynomial.variable(CH, "y")
    f = (x + y) * (x - y) * Polynomial.constant(CH, 6)
    g = (x + y) * x * Polynomial.constant(CH, 4)
    assert poly_gcd(f, g) == (x + y) * Polynomial.constant(CH, 2)


# --- randomized properties ---

_coords = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _polys():
    return st.dictionaries(_coords, st.integers(-4, 4), max_size=3).map(
        lambda terms: Polynomial(CH, terms))


def _ratfuncs():
    return st.tuples(_polys(), _polys().filter(lambda p: not p.is_zero())).map(
        lambda pair: RatFunc(*pair))


@settings(max_examples=40, deadline=None)
@given(_ratfuncs(), _ratfuncs(), _ratfuncs())
def test_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == 0
    if not f.is_zero():
        assert f * (1 / f) == 1


@settings(max_examples=40, deadline=None)
@given(_ratfuncs(), _ratfuncs())
def test_derivative_is_a_derivation(f, g):
    left = (f * g).derivative("y")
    right = f * g.derivative("y") + g * f.derivative("y")
    assert left == right


@settings(max_examples=40, deadline=None)
@given(_ratfuncs(), _ratfuncs())
def test_evaluate_commutes_with_arithmetic(f, g):
    p = CH.point((Fraction(1, 2), 2, Fraction(-3, 2)))
    try:
        fv, gv = f.evaluate(p), g.evaluate(p)
    except PoleAtPoint:
        assume(False)
    assert (f + g).evaluate(p) == fv + gv
    assert (f * g).evaluate(p) == fv * gv
    assert (f - g).evaluate(p) == fv - gv


@settings(max_examples=40, deadline=None)
@given(_ratfuncs(), _ratfuncs())
def test_canonical_uniqueness_random(f, g):
    assert (f + g) - g == f
    if not g.is_zero():
        assert (f * g) / g == f


def _reference_value(poly, coords):
    """Term-by-term Fraction evaluation: the oracle for integer evaluation."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = Fraction(c)
        for v, k in zip(coords, e):
            term *= Fraction(v) ** k
        total += term
    return total


_high_coords = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _high_polys():
    return st.dictionaries(_high_coords, st.integers(-9, 9), max_size=4).map(
        lambda terms: Polynomial(CH, terms))


@settings(max_examples=200, deadline=None)
@given(_high_polys(), _high_polys().filter(lambda p: not p.is_zero()),
       st.tuples(_fractions, _fractions, _fractions))
def test_integer_evaluation_matches_fraction_reference(num, den, coords):
    f = RatFunc(num, den)
    p = CH.point(coords)
    reference_den = _reference_value(f.den, p.coordinates)
    if reference_den == 0:
        with pytest.raises(PoleAtPoint):
            f.evaluate(p)
    else:
        assert f.evaluate(p) == _reference_value(f.num, p.coordinates) / reference_den


def test_evaluate_pole_at_rational_point():
    f = sc(CH, "y/(3*x^2 - 2*x*z)")
    with pytest.raises(PoleAtPoint, match=r"denominator vanishes at \(2/3, 5, 1\)"):
        f.evaluate(CH.point((Fraction(2, 3), 5, 1)))
    assert f.evaluate(CH.point((Fraction(2, 3), 5, 2))) == Fraction(-15, 4)


def _nonconstant_polys():
    return _polys().filter(lambda p: not p.is_constant())


@settings(max_examples=60, deadline=None)
@given(_nonconstant_polys(), _polys().filter(lambda p: not p.is_zero()),
       _polys().filter(lambda p: not p.is_zero()))
def test_heuristic_gcd_matches_prs(h, a, b):
    f, g = h * a, h * b
    heuristic = _heuristic_gcd(f, g)
    if heuristic is not None:
        assert heuristic == _prs_entry(f, g)
    assert poly_gcd(f, g) == _prs_entry(f, g)


def test_heuristic_gcd_gives_up_on_huge_coefficients():
    x = Polynomial.variable(CH, "x")
    y = Polynomial.variable(CH, "y")
    one = Polynomial.one(CH)
    h = x ** 3 + Polynomial.constant(CH, 2 ** 4100 + 1)
    f, g = h * (y + one), h * (y - one)
    assert _heuristic_gcd(f, g) is None
    assert poly_gcd(f, g) == h


# --- zero and one fast paths against the full constructor ---

# an equal but distinct chart: its zero and one are other objects
TWIN = Chart("A", ("x", "y", "z"))
_operands = st.one_of(sparse_ratfuncs(CH), st.just(TWIN.zero()), st.just(TWIN.one()))


def _same(fast, reference):
    assert fast == reference
    assert fast.num.terms == reference.num.terms
    assert fast.den.terms == reference.den.terms


@settings(max_examples=300, deadline=None)
@given(_operands, _operands)
def test_arithmetic_fast_paths_match_full_constructor(f, g):
    _same(f + g, ref_add(f, g))
    _same(f - g, ref_sub(f, g))
    _same(f * g, ref_mul(f, g))
    # a factor of one, shared or built by the full constructor, returns f
    x = Polynomial.variable(CH, "x")
    for one in (CH.one(), TWIN.one(), RatFunc(x, x)):
        _same(f * one, ref_mul(f, one))
        _same(one * f, ref_mul(one, f))
    _same(-f, ref_neg(f))
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            f / g
    else:
        _same(f / g, ref_div(f, g))
    for var in CH.variables:
        _same(f.derivative(var), ref_derivative(f, var))


@settings(max_examples=100, deadline=None)
@given(_operands, st.integers(-3, 3))
def test_integer_operands_match_full_constructor(f, n):
    c = RatFunc(Polynomial.constant(CH, n), Polynomial.constant(CH, 1))
    _same(f + n, ref_add(f, c))
    _same(n - f, ref_sub(c, f))
    _same(n * f, ref_mul(c, f))
    if n:
        _same(f / n, ref_div(f, c))


def test_division_by_zero_still_raises():
    x = sc(CH, "x")
    for zero in (CH.zero(), TWIN.zero(), sc(CH, "x - x")):
        with pytest.raises(DivisionByZero):
            x / zero
        with pytest.raises(DivisionByZero):
            zero / zero
        with pytest.raises(DivisionByZero):
            zero.reciprocal()
        with pytest.raises(DivisionByZero):
            1 / zero
        with pytest.raises(DivisionByZero):
            x / 0


def test_shared_zero_and_one():
    assert CH.zero() is CH.zero() is CH.const(0) is RatFunc.constant(CH, 0)
    assert CH.one() is CH.const(1) is RatFunc.constant(CH, Fraction(1))
    assert sc(CH, "x - x").num is CH.zero().num
    assert (sc(CH, "x") * CH.zero()) is CH.zero()
    assert sc(CH, "y").derivative("x") is CH.zero()
    assert TWIN.zero() is not CH.zero() and TWIN.one() is not CH.one()
    assert TWIN.zero() == CH.zero() and hash(TWIN.zero()) == hash(CH.zero())
    assert TWIN.one() == CH.one() and hash(TWIN.one()) == hash(CH.one())
    assert sc(CH, "x") + TWIN.zero() == sc(CH, "x")
    assert (sc(CH, "x") * TWIN.one()).chart == CH


def _canonical_constants(chart):
    unit = {(0,) * chart.dimension: 1}
    zero, one = chart.zero(), chart.one()
    return (zero.num.terms, zero.den.terms, one.num.terms, one.den.terms) == \
        ({}, unit, unit, unit)


def test_shared_constants_survive_every_builtin_analysis(monkeypatch):
    charts = []
    init = Chart.__init__

    def recording_init(self, *args):
        init(self, *args)
        charts.append(self)

    monkeypatch.setattr(Chart, "__init__", recording_init)
    tasks = "growth,classify,scan,flag,branch,symbol"
    for spec in catalog_list():
        # j21 stops at ``symbol`` with a ConsistencyError (exit 3)
        code = cli.main(["analyze", "--builtin", spec.name, "--tasks", tasks,
                         "--samples", "4", "--format", "json"], out=io.StringIO())
        assert code in (0, 3)
    used = [chart for chart in charts if chart._zero is not None]
    assert len(used) >= len(catalog_list())
    assert all(_canonical_constants(chart) for chart in used)
