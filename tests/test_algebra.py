"""Exact polynomial and rational-function arithmetic."""

import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagrank import Chart, Polynomial, RatFunc, algebra, catalog_list, cli, load_model
from flagrank.algebra import _brown_gcd, _certificate_residue, _coprime_mod_p, \
    decimal_to_int, int_to_decimal, poly_gcd
from flagrank.errors import ChartMismatch, DegreeOverflow, DivisionByZero, PoleAtPoint, \
    PreconditionError, UnknownVariable
from util import _prs_entry, digits_value, grlex, prs_gcd, ref_add, ref_derivative, \
    ref_div, ref_mul, ref_neg, ref_sub, run_with_memory_limit, sc, sparse_ratfuncs, \
    tuple_add, tuple_derivative, tuple_divexact, tuple_leading, \
    tuple_mul, tuple_render, tuple_total_degree, tuple_univ_coeffs, unpacked

CH = Chart("A", ("x", "y", "z"))
CH6 = Chart("B", ("u1", "u2", "u3", "x", "y", "z"))


def test_add_cancellation():
    f = sc(CH, "x/y")
    assert f + (1 - f) == 1


HUGE_INTEGERS = {
    "zero": 0, "seven": 7, "minus_seven": -7, "ten^600": 10 ** 600,
    "2^1800-1": 2 ** 1800 - 1, "2^1800": 2 ** 1800, "-2^1801": -(2 ** 1801),
    "ten^5000": 10 ** 5000, "ten^5000-1": 10 ** 5000 - 1,
    "ten^5000+1": 10 ** 5000 + 1, "2^20000": 2 ** 20000,
    "-3^30000+ten^700": -(3 ** 30000) + 10 ** 700,
}


@pytest.mark.parametrize("name", HUGE_INTEGERS)
def test_decimal_text_has_no_size_limit(name):
    n = HUGE_INTEGERS[name]
    # CPython refuses int <-> text conversions past 4300 digits by default
    text = int_to_decimal(n)
    digits = text[1:] if n < 0 else text
    assert text[:1] != "-" or n < 0
    assert digits == "0" or digits[0] != "0"
    assert digits_value(digits) == abs(n)
    assert decimal_to_int(digits) == abs(n)
    assert decimal_to_int("0" * 700 + digits) == abs(n)
    if len(digits) < 4300:
        assert text == str(n)


def test_decimal_text_matches_str_up_to_ten_to_the_200000():
    rng = random.Random(5)
    values = [-(10 ** 200000), 10 ** 200000 - 1, -(2 ** 1801) - 1, 2 ** 3601 + 1]
    values += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in
               (1799, 1800, 1801, 3600, 3601, 7203, 20000, 123457)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in values:
            assert int_to_decimal(n) == str(n)
    finally:
        sys.set_int_max_str_digits(limit)


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
    for e, c in unpacked(poly).items():
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


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_high_polys(), _high_polys().filter(lambda p: not p.is_zero())),
                min_size=1, max_size=5),
       st.tuples(_fractions, _fractions, _fractions))
def test_integer_evaluation_matches_fraction_reference(pairs, coords):
    # one point evaluates every function, so later ones read monomial
    # values that earlier ones stored; a fresh point starts empty
    p = CH.point(coords)
    for num, den in pairs:
        f = RatFunc(num, den)
        fresh = CH.point(coords)
        reference_den = _reference_value(f.den, p.coordinates)
        if reference_den == 0:
            for point in (p, fresh):
                with pytest.raises(PoleAtPoint):
                    f.evaluate(point)
        else:
            value = _reference_value(f.num, p.coordinates) / reference_den
            assert f.evaluate(p) == f.evaluate(fresh) == value


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
def test_gcd_of_a_common_factor_matches_prs(h, a, b):
    f, g = h * a, h * b
    assert poly_gcd(f, g) == _prs_entry(f, g)


def test_gcd_with_huge_coefficients():
    x = Polynomial.variable(CH, "x")
    y = Polynomial.variable(CH, "y")
    one = Polynomial.one(CH)
    h = x ** 3 + Polynomial.constant(CH, 2 ** 4100 + 1)
    f, g = h * (y + one), h * (y - one)
    assert poly_gcd(f, g) == h


# --- each exact step of poly_gcd against the PRS twin ---

def _polys_in(variables):
    """Nonzero polynomials of up to three terms in the variable indices given."""
    exps = st.tuples(*[st.integers(0, 2) if i in variables else st.just(0)
                       for i in range(3)])
    coefficients = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    return st.dictionaries(exps, coefficients, min_size=1, max_size=3).map(
        lambda terms: Polynomial(CH, terms))


@st.composite
def _one_sided_pairs(draw):
    """h*a and h*b where some variable occurs in one operand only."""
    roles = draw(st.tuples(*[st.sampled_from("sfgn")] * 3))
    shared = {i for i, r in enumerate(roles) if r == "s"}
    h = draw(_polys_in(shared))
    a = draw(_polys_in(shared | {i for i, r in enumerate(roles) if r == "f"}))
    b = draw(_polys_in(shared | {i for i, r in enumerate(roles) if r == "g"}))
    f, g = h * a, h * b
    assume(f._used() != g._used())
    return f, g


@settings(max_examples=100, deadline=None)
@given(_one_sided_pairs())
def test_shared_variable_split_matches_prs(pair):
    f, g = pair
    assert poly_gcd(f, g) == prs_gcd(f, g)
    assert poly_gcd(g, f) == prs_gcd(f, g)


@settings(max_examples=100, deadline=None)
@given(_polys_in({0, 1, 2}), _polys_in({0, 1, 2}), _polys_in({0, 1, 2}))
def test_coprimality_certificate_matches_prs(h, a, b):
    for f, g in ((a, b), (h * a, h * b)):
        expected = prs_gcd(f, g)
        used_f, used_g = f._used(), g._used()
        if _coprime_mod_p(f, g, sorted(used_f & used_g), sorted(used_f | used_g)):
            assert expected.is_constant()
        assert poly_gcd(f, g) == expected


def test_coprimality_certificate_passes_and_refuses():
    x, y, z = (Polynomial.variable(CH, v) for v in "xyz")
    one = Polynomial.one(CH)
    assert _coprime_mod_p(one + z * z, z * 2, [2], [2])
    assert _coprime_mod_p(x * y + one, x * y - one, [0, 1], [0, 1])
    rx, ry = (Polynomial.constant(CH, _certificate_residue(i)) for i in (0, 1))
    # every leading coefficient of h vanishes at the certificate's point,
    # so each image of h there is one and the images of f and g are coprime
    h = (x - rx) * (y - ry) * z + one
    f = h * (x + y + z + Polynomial.constant(CH, 2))
    g = h * (x - y + z * 2 + Polynomial.constant(CH, 3))
    assert not _coprime_mod_p(f, g, [0, 1, 2], [0, 1, 2])
    assert poly_gcd(f, g) == h == prs_gcd(f, g)


def test_certificate_runs_before_the_shared_variable_split():
    x, y, z = (Polynomial.variable(CH, v) for v in "xyz")
    one, two, three = (Polynomial.constant(CH, c) for c in (1, 2, 3))
    rx, ry = (Polynomial.constant(CH, _certificate_residue(i)) for i in (0, 1))
    h = one + z * z
    cases = [
        # coprime: one image over every variable proves it, with no split
        (h ** 3, x * z + y + one, True),
        # a shared factor: the certificate refuses and the split finds it
        (h * (x + z), h * h * (y - one), False),
        # both leading coefficients in z vanish at the certificate's point,
        # so it proves nothing and the split decides
        ((x - rx) * z + one, (y - ry) * z * z + z + three, False),
        ((z + two) * ((x - rx) * z + one), (z + two) * ((y - ry) * z * z + z + three), False),
    ]
    for f, g, certified in cases:
        used_f, used_g = f._used(), g._used()
        assert used_f != used_g
        assert _coprime_mod_p(f, g, sorted(used_f & used_g),
                              sorted(used_f | used_g)) is certified
        expected = prs_gcd(f, g)
        assert poly_gcd(f, g) == expected == poly_gcd(g, f)
        assert expected.is_one() or not certified
    assert poly_gcd(*cases[1][:2]) == h
    assert poly_gcd(*cases[3][:2]) == z + two


def test_huge_exponents_cost_their_bit_length():
    # x^(2^31 - 2) is fixed by one modular power, not a table out to the
    # exponent, and a shared variable of that degree is left to the split
    model = load_model("chart M(x, y, z)\nfield X = @x + x^2147483646*y/(1 + y^2)*@y\n")
    coefficient = model.fields["X"].coefficients[1]
    assert coefficient.render() == "(x^2147483646*y)/(y^2 + 1)"
    x, y, z = (Polynomial.variable(CH, v) for v in "xyz")
    big = x ** (_BOUND - 2)
    assert not _coprime_mod_p(big + x * y, big + z, [0], [0, 1, 2])
    assert poly_gcd(big + x * y, x + z).is_one()
    assert poly_gcd(big + x * y, big + z).is_one()
    assert poly_gcd(big * (y + z), (y + z) * (y - z)) == y + z


def test_huge_degree_gcds_stay_within_memory():
    # Both gcds share x at degree near 2^31, which the certificate leaves
    # undecided; Brown's dense lists would run out to that degree.  Divides-first tries x + z, the operand of lower
    # total degree, and a gcd that still reaches Brown raises DegreeOverflow.
    result = run_with_memory_limit(
        "from flagrank import Chart, Polynomial, poly_gcd\n"
        "from flagrank.errors import DegreeOverflow\n"
        "chart = Chart('C', ('x', 'y', 'z'))\n"
        "x, y, z = (Polynomial.variable(chart, v) for v in 'xyz')\n"
        "one, two = Polynomial.one(chart), Polynomial.constant(chart, 2)\n"
        "big = x ** (2 ** 31 - 3)\n"
        "assert poly_gcd(big * x * (x + z), x + z) == x + z\n"
        "assert poly_gcd(x + z, big * x * (x + z)) == x + z\n"
        "try:\n"
        "    poly_gcd(big * (x + z) * (y + one), (x + z) * (y + two))\n"
        "except DegreeOverflow as exc:\n"
        "    print(exc)\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("a gcd of degree 2147483646 in one variable "
                             f"exceeds the dense bound {algebra._DENSE_DEGREE}\n")


def test_brown_gcd_completes_at_degree_2500(monkeypatch):
    # the certificate leaves x undecided (2502 * 62 > 2^16), so Brown's
    # dense gcd decides it
    x = Polynomial.variable(CH, "x")
    one = Polynomial.one(CH)
    calls = []

    def recorded(f, g):
        calls.append((f, g))
        return _brown_gcd(f, g)

    monkeypatch.setattr(algebra, "_brown_gcd", recorded)
    three = Polynomial.constant(CH, 3)
    f = (x ** 2500 + x + three) * (x ** 2 + one)
    g = (x ** 60 + x + one) * (x ** 2 + one)
    assert poly_gcd(f, g) == x ** 2 + one
    assert len(calls) == 1


def test_sum_over_coprime_denominators_runs_no_gcd_of_the_sum(monkeypatch):
    # x^2440 + 1/(x^60 + 3) over x^60 + 3 is reduced as it stands, with no
    # gcd; so is 1/(x^600 + 1) + 1/(x^500 + 3), whose gcds are between the
    # denominators' bases and their derivatives only
    gcd = algebra.poly_gcd
    calls = []

    def recorded(f, g):
        calls.append((f, g))
        return gcd(f, g)

    one, two = sc(CH, "x^2440"), sc(CH, "1/(x^60 + 3)")
    monkeypatch.setattr(algebra, "poly_gcd", recorded)
    total = one + two
    assert (total.num, total.den) == (sc(CH, "x^2500 + 3*x^2440 + 1").num,
                                      sc(CH, "x^60 + 3").num)
    assert not calls
    total = sc(CH, "1/(x^600 + 1)") + sc(CH, "1/(x^500 + 3)")
    assert (total.num, total.den) == (sc(CH, "x^600 + x^500 + 4").num,
                                      sc(CH, "(x^600 + 1)*(x^500 + 3)").num)
    assert calls and all(f.total_degree() <= 600 and g.total_degree() <= 600
                         for f, g in calls)


def test_divisor_with_fewer_terms_is_the_gcd():
    x, y, z = (Polynomial.variable(CH6, v) for v in ("x", "y", "z"))
    u1, u2, u3 = (Polynomial.variable(CH6, v) for v in ("u1", "u2", "u3"))
    three, nine = Polynomial.constant(CH6, 3), Polynomial.constant(CH6, 9)
    # the eq4 denominator 3 + 9*u2 - 2*u1 + 6*x*w with w = u3 + y*z
    d = three + nine * u2 - u1 * 2 + x * (u3 + y * z) * 6
    assert poly_gcd(d ** 3, d ** 4) == d ** 3 == poly_gcd(-(d ** 4), d ** 3)
    e = Polynomial.one(CH6) + u1 * x
    assert poly_gcd(d ** 3 * e, d ** 4) == d ** 3 == prs_gcd(d * e, d ** 2) * d ** 2


@settings(max_examples=80, deadline=None)
@given(_nonconstant_polys(), _polys().filter(lambda p: not p.is_zero()),
       _polys().filter(lambda p: not p.is_zero()), st.integers(1, 6))
def test_brown_gcd_matches_prs(h, a, b, scale):
    f, g = h * a * scale, h * b
    assert _brown_gcd(f, g) == prs_gcd(f, g)
    assert _brown_gcd(a, b) == prs_gcd(a, b)


def test_brown_gcd_of_constants():
    # no variable is used, so the degree bound takes the max of nothing
    six, four = Polynomial.constant(CH, 6), Polynomial.constant(CH, 4)
    assert _brown_gcd(six, four) == Polynomial.constant(CH, 2) == prs_gcd(six, four)
    one = Polynomial.one(CH)
    assert _brown_gcd(one, one) == one == prs_gcd(one, one)


def test_brown_gcd_on_huge_coefficients():
    x = Polynomial.variable(CH, "x")
    y = Polynomial.variable(CH, "y")
    z = Polynomial.variable(CH, "z")
    one = Polynomial.one(CH)
    h = x ** 3 + Polynomial.constant(CH, 2 ** 4100 + 1)
    assert _brown_gcd(h * (y + one), h * (y - one)) == h
    # a leading coefficient of many primes and an integer content
    k = (x * y * Polynomial.constant(CH, 3 ** 200) + z) * Polynomial.constant(CH, 6)
    f, g = k * (x + z), k * (y * y - x) * Polynomial.constant(CH, 4)
    assert _brown_gcd(f, g) == poly_gcd(f, g) == prs_gcd(f, g)


@pytest.mark.parametrize("text, var", [
    ("x/(y + 1)", "x"),  # den free of v: one gcd against den
    ("1/(y^2*z + y)", "z"),  # its content y shares a factor with the top
    ("1/(2*x^2 + 2)", "x"),  # its content 2 divides the top
    ("(x + 1)/((x*y - 1)^2*(x + y))", "x"),  # gcd(b, b_v) = x*y - 1
    ("(z - 1)/(4*y*(x*z + 1)^3)", "z"),
    ("y/(3*x^2 - 2*x*z)", "x"),
])
def test_quotient_rule_branches_match_full_constructor(text, var):
    f = sc(CH, text)
    _same(f.derivative(var), ref_derivative(f, var))


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


# --- polynomial and shared-denominator operands against the full constructor ---

_UNIT = (0, 0, 0)


def _over_one(poly, shared):
    """poly/1, built over the shared one or over an equal but distinct one."""
    return RatFunc(poly, Polynomial.one(CH) if shared else Polynomial(CH, {_UNIT: 1}))


_polynomials = st.tuples(_polys(), st.booleans()).map(lambda pair: _over_one(*pair))
_linear = st.dictionaries(st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                          st.integers(1, 3), min_size=1, max_size=2).map(
    lambda terms: Polynomial(CH, terms))


@st.composite
def _shared_denominator_pairs(draw):
    """Reduced f, g over one non-constant denominator q*r (the same object or
    an equal copy); g's numerator is free, cancels f's, or makes the sum
    share the factor q with the denominator."""
    q, r = draw(_linear), draw(_linear.map(lambda p: p + Polynomial.one(CH)))
    den = (q * r).sign_normalized()
    nonzero = _polys().filter(lambda p: not p.is_zero())
    num = draw(nonzero)
    other = draw(st.one_of(nonzero, st.just(-num), nonzero.map(lambda p: q * p - num)))
    assume(not other.is_zero())
    f = RatFunc(num, den)
    g = RatFunc(other, den if draw(st.booleans()) else Polynomial(CH, unpacked(den)))
    assume(f.den == den and g.den == den)
    return f, g


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_polynomials, _polynomials),
                 st.tuples(_polynomials, sparse_ratfuncs(CH)),
                 st.tuples(sparse_ratfuncs(CH), _polynomials),
                 _shared_denominator_pairs()))
def test_polynomial_and_shared_denominator_paths_match_full_constructor(pair):
    f, g = pair
    _same(f + g, ref_add(f, g))
    _same(f - g, ref_sub(f, g))
    _same(g - f, ref_sub(g, f))
    _same(f * g, ref_mul(f, g))
    for one in (Polynomial.one(CH), Polynomial(CH, {_UNIT: 1})):
        for product, operand in ((f.num * one, f.num), (one * g.num, g.num)):
            assert product == operand and product.terms == operand.terms
    if f.den.is_one():
        # a denominator of one is not evaluated: the pair is (n, B^deg n)
        point = CH.point((Fraction(1, 2), -3, Fraction(2, 3)))
        n, d = f.integer_pair(point)
        assert d == point.scale_power(f.num.total_degree())
        assert Fraction(n, d) == _reference_value(f.num, point.coordinates)
    assert _canonical_constants(CH)


def test_shared_denominator_sums_reduce():
    x = Polynomial.variable(CH, "x")
    den = x * x - Polynomial.one(CH)
    f, g = RatFunc(x, den), RatFunc(Polynomial.one(CH), den)
    # x/(x^2 - 1) + 1/(x^2 - 1) = 1/(x - 1)
    _same(f + g, RatFunc(Polynomial.one(CH), x - Polynomial.one(CH)))
    _same(f + g, ref_add(f, g))
    assert (f - f) is CH.zero() and (f + (-f)) is CH.zero()


# --- partials memoised on each RatFunc against the quotient rule ---

# two-term denominators that contain a variable, so the full quotient rule runs
_curved = st.tuples(
    _polys(),
    st.dictionaries(_coords, st.integers(-4, 4), min_size=1, max_size=2).map(
        lambda terms: Polynomial(CH, terms)).filter(lambda p: not p.is_constant()),
).map(lambda pair: RatFunc(*pair))


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_ratfuncs(CH), _curved))
def test_memoised_partials_match_reference(f):
    used = f.variables_used()
    for var in CH.variables:
        d = f.derivative(var)
        _same(d, ref_derivative(f, var))
        assert f.derivative(var) is d
        if var in used:
            assert f.partials()[CH.index(var)] is d
        else:
            assert d is CH.zero()
    assert list(f.partials()) == sorted(CH.index(var) for var in used)
    assert f.partials() is f.partials()
    with pytest.raises(UnknownVariable):
        f.derivative("w")


def _canonical_constants(chart):
    unit = {chart.pack((0,) * chart.dimension): 1}
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


# --- packed monomial keys against the tuple-keyed reference ---

_BOUND = 2 ** 31
# exponents up to 2^29 keep every total degree of three below 2^31, and the
# small ones make equal degrees (the lexicographic tie-break) common
_exponents = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2 ** 29))] * 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_exponents, min_size=1, max_size=8))
def test_pack_round_trips_and_orders_keys_as_grlex(exps):
    for e in exps + [(_BOUND - 1, 0, 0), (0, 0, _BOUND - 1), (0, 0, 0)]:
        assert CH.unpack(CH.pack(e)) == e
        # equal but distinct charts pack alike
        assert TWIN.pack(e) == CH.pack(e)
    assert sorted(exps, key=CH.pack) == sorted(exps, key=grlex)


def test_pack_rejects_exponents_outside_the_bound():
    with pytest.raises(DegreeOverflow):
        CH.pack((_BOUND, 0, 0))
    with pytest.raises(DegreeOverflow):
        CH.pack((_BOUND // 2, 0, _BOUND // 2))
    with pytest.raises(DegreeOverflow):
        Polynomial(CH, {(1, _BOUND - 1, 0): 1})
    with pytest.raises(ValueError):
        CH.pack((1, -1, 0))
    with pytest.raises(ValueError):
        CH.pack((1, 0))
    assert issubclass(DegreeOverflow, PreconditionError)


def _tuple_polys(max_exponent=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exponent)] * 3)
    return st.dictionaries(exps, st.integers(-5, 5), max_size=max_terms)


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=200, deadline=None)
@given(_tuple_polys(), _tuple_polys(), st.sampled_from((-2, 0, 1, 3)))
def test_packed_kernel_matches_tuple_reference(a_terms, b_terms, value):
    a, b = Polynomial(CH, a_terms), Polynomial(CH, b_terms)
    ra, rb = _nonzero(a_terms), _nonzero(b_terms)
    assert unpacked(a) == ra
    results = [a + b, a - b, a * b, -a, a * value]
    assert [unpacked(p) for p in results] == [
        tuple_add(ra, rb), tuple_add(ra, {e: -c for e, c in rb.items()}),
        tuple_mul(ra, rb), {e: -c for e, c in ra.items()},
        _nonzero({e: c * value for e, c in ra.items()})]
    assert a.total_degree() == tuple_total_degree(ra)
    assert a.render() == tuple_render(CH.variables, ra)
    if ra:
        key, c = a.leading()
        assert (CH.unpack(key), c) == tuple_leading(ra)
    for i, var in enumerate(CH.variables):
        results.append(a.derivative(var))
        assert unpacked(a.derivative(var)) == tuple_derivative(ra, i)
        coeffs = a._univ_coeffs(i)
        assert {k: unpacked(p) for k, p in coeffs.items()} == tuple_univ_coeffs(ra, i)
        results += list(coeffs.values())
        assert a._deg_in(i) == max((e[i] for e in ra), default=0)
    assert all(0 not in p.terms.values() for p in results)
    assert a.variables_used() == {v for e in ra for v, k in zip(CH.variables, e) if k}
    # equality and hashing across equal but distinct charts
    twin = Polynomial(TWIN, a_terms)
    assert twin == a and hash(twin) == hash(a)
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(_tuple_polys(max_terms=3), _tuple_polys(max_terms=3).filter(_nonzero))
def test_divexact_matches_tuple_reference_on_exact_quotients(q_terms, b_terms):
    q, b = Polynomial(CH, q_terms), Polynomial(CH, b_terms)
    product = q * b
    assert product.divexact(b) == q
    assert unpacked(product.divexact(b)) == tuple_divexact(unpacked(product), unpacked(b))


@settings(max_examples=200, deadline=None)
@given(_exponents, st.integers(0, 2), st.integers(1, 4), st.integers(-3, 3).filter(bool))
def test_divexact_guard_bits_catch_one_negative_exponent(le, i, short, coeff):
    # the dividend's leading monomial has degree >= the divisor's, so only
    # the guard bit of variable i can show that the quotient is not polynomial
    le = tuple(min(k, 2 ** 20) for k in le)
    re = list(le)
    re[i] = max(le[i] - short, 0)
    assume(re[i] < le[i])
    re[(i + 1) % 3] += short + 1
    re = tuple(re)
    # one term each: a borrowed quotient key would leave no remainder
    dividend = Polynomial(CH, {re: coeff})
    divisor = Polynomial(CH, {le: 1})
    assert sum(re) >= sum(le)
    with pytest.raises(ValueError):
        dividend.divexact(divisor)
    with pytest.raises(ValueError):
        tuple_divexact(unpacked(dividend), unpacked(divisor))
    # and one exact case on the same monomials
    exact = Polynomial(CH, {tuple(a + b for a, b in zip(re, le)): coeff})
    assert unpacked(exact.divexact(divisor)) == {re: coeff}


@settings(max_examples=60, deadline=None)
@given(_tuple_polys(max_exponent=2, max_terms=3).filter(_nonzero),
       _tuple_polys(max_exponent=2, max_terms=3).filter(_nonzero),
       _tuple_polys(max_exponent=2, max_terms=3).filter(_nonzero))
def test_poly_gcd_divides_per_tuple_reference(h_terms, a_terms, b_terms):
    h = Polynomial(CH, h_terms)
    f, g = h * Polynomial(CH, a_terms), h * Polynomial(CH, b_terms)
    d = unpacked(poly_gcd(f, g))
    # the gcd divides both operands, h divides it, and it leads positive
    tuple_divexact(unpacked(f), d)
    tuple_divexact(unpacked(g), d)
    tuple_divexact(d, unpacked(h))
    assert tuple_leading(d)[1] > 0
    assert poly_gcd(Polynomial(TWIN, unpacked(f)), Polynomial(TWIN, unpacked(g))) == \
        poly_gcd(f, g)


def test_degree_bound_raises_and_never_wraps():
    x = Polynomial.variable(CH, "x")
    y = Polynomial.variable(CH, "y")
    top = x ** (_BOUND - 1)
    assert unpacked(top) == {(_BOUND - 1, 0, 0): 1}
    assert top.total_degree() == _BOUND - 1
    for factor in (x, y, top, x + Polynomial.one(CH)):
        with pytest.raises(DegreeOverflow):
            top * factor
    with pytest.raises(DegreeOverflow):
        x ** _BOUND
    with pytest.raises(DegreeOverflow):
        (x * y) ** (_BOUND // 2)
    f = sc(CH, "x") ** (_BOUND - 1)
    assert f.num == top
    with pytest.raises(DegreeOverflow):
        f * sc(CH, "x")
    with pytest.raises(DegreeOverflow):
        f / sc(CH, "1/x")
    # lowering stays inside the bound
    assert unpacked(top.derivative("x")) == {(_BOUND - 2, 0, 0): _BOUND - 1}
    assert top.divexact(x ** (_BOUND - 2)) == x
