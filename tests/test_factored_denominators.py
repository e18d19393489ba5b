"""RatFunc's factored denominator against the expanded-denominator twin.

A denominator is kept as a positive integer times powers of pairwise
coprime, squarefree, primitive bases; a numerator meets a certified
irreducible base by trial division only.  Every result must equal what the
arithmetic over one expanded denominator (``util.ExpandedRatFunc``) gives,
byte for byte.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, Polynomial, RatFunc, algebra
from flagrank.algebra import _is_certified, _squarefree_bases, poly_gcd
from flagrank.errors import PoleAtPoint
from util import ExpandedRatFunc, prs_gcd, sc

CH = Chart("F", ("x", "u1", "z"))
PARK = Chart("P", ("x", "u1", "u2", "z", "w"))

FIVE_TERM = "3 - 2*w^3 + 9*u2 - 2*u1 + 6*x*w"


def _poly(chart, text):
    return sc(chart, text).num


@pytest.mark.parametrize("chart, text", [
    (CH, "1 + z^2"), (CH, "2 + u1^2"), (PARK, FIVE_TERM), (CH, "x + 3"),
    (CH, "x*u1 + z + 1"), (CH, "x*z + u1*z + 1")])
def test_certified_bases(chart, text):
    assert _is_certified(_poly(chart, text))


@pytest.mark.parametrize("text", [
    "x^2 - 1", "4 - z^2", "x*u1 + x", "2 + 2*x^2", "x^2*u1^2 + 1", "(1 + z^2)*(2 + x)"])
def test_refused_bases(text):
    # x^2 - 1 and 4 - z^2 have rational roots, x*u1 + x = x*(u1 + 1), and
    # 2 + 2*x^2 is not primitive; the last two fit neither shape
    assert not _is_certified(_poly(CH, text))


_small = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3),
                         max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["1 + z^2", "2 + u1^2", "x^2 - 1", "4 - z^2", "x*u1 + x",
                        "2 + 2*x^2"]), _small, _small)
def test_gcd_against_each_base_matches_prs(text, r_terms, s_terms):
    q = _poly(CH, text)
    f = q * Polynomial(CH, r_terms) + Polynomial(CH, s_terms)
    assert poly_gcd(f, q) == prs_gcd(f, q)
    assert poly_gcd(q, f) == prs_gcd(q, f)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["(1 + z^2)^2*(x^2 - 1)", "x^3*(x*u1 + x)^2", "(4 - z^2)^3",
                        "(x + u1)^2*(x - u1)*(1 + z^2)", "(x^2 - u1^2)*(x^2 - 1)^2",
                        "(x*z + u1)^2*(x + 1)"]), _small)
def test_squarefree_bases_multiply_back(text, r_terms):
    # the bases are pairwise coprime, squarefree and primitive, and their
    # powers give the input back
    q = _poly(CH, text).sign_normalized()
    r = Polynomial(CH, r_terms)
    bases = _squarefree_bases(q)
    product = Polynomial.one(CH)
    for p, k, irreducible in bases:
        product = product * p ** k
        assert p.content() == 1 and p.leading()[1] > 0
        assert irreducible == _is_certified(p)
        for i, var in enumerate(CH.variables):
            assert prs_gcd(p, p.derivative(var))._deg_in(i) == 0
    assert product == q
    for i, (p, _, _) in enumerate(bases):
        for other, _, _ in bases[i + 1:]:
            assert prs_gcd(p, other).is_one()
    f = RatFunc(r, q)
    assert (f.num, f.den) == (ExpandedRatFunc(r, q).num, ExpandedRatFunc(r, q).den)


# Bases of the differential tests: certified ones, reducible uncertified ones,
# and ones that share a factor (x + 1 with x^2 - 1, 1 + z^2 with
# (1 + z^2)*(2 + x)), which refinement must split.
_BASES = ["1 + z^2", "2 + u1^2", "x + 1", "2 + x", "x^2 - 1", "x*u1 + x",
          "(1 + z^2)*(2 + x)", "x^2 - u1^2", "4 - z^2", "x*z + u1", "(x + u1)*(x + z)"]


@st.composite
def _values(draw):
    """(num, den) with den a constant times powers of bases, and num free or
    holding a base, so that cancellation and refinement both run."""
    den = Polynomial.constant(CH, draw(st.sampled_from((1, 1, 2, 3, -6))))
    for text in draw(st.lists(st.sampled_from(_BASES), max_size=3)):
        den = den * _poly(CH, text) ** draw(st.integers(1, 2))
    num = Polynomial(CH, draw(_small))
    if draw(st.booleans()):
        num = num * _poly(CH, draw(st.sampled_from(_BASES)))
    return num, den


def _same(fast, twin):
    assert fast.num.terms == twin.num.terms
    assert fast.den.terms == twin.den.terms
    assert fast.render() == twin.render()


_POINT = CH.point((Fraction(1, 2), -1, Fraction(2, 3)))
_POLE = CH.point((-1, 1, 0))


@settings(max_examples=150, deadline=None)
@given(_values(), _values())
def test_factored_arithmetic_matches_expanded_twin(a, b):
    f, g = RatFunc(*a), RatFunc(*b)
    tf, tg = ExpandedRatFunc(*a), ExpandedRatFunc(*b)
    _same(f, tf)
    _same(g, tg)
    _same(f + g, tf + tg)
    _same(f * g, tf * tg)
    _same(f * f * g, tf * tf * tg)
    _same(f - g * g, tf + ExpandedRatFunc(-tg.num, tg.den) * tg)
    if not g.is_zero():
        _same(f / g, tf / tg)
        _same(g.reciprocal(), tg.reciprocal())
    for value, twin in ((f, tf), (f * g, tf * tg)):
        for var in CH.variables:
            _same(value.derivative(var), twin.partial(var))
        for point in (_POINT, _POLE):
            try:
                expected = twin.integer_pair(point)
            except PoleAtPoint:
                with pytest.raises(PoleAtPoint):
                    value.integer_pair(point)
            else:
                assert value.integer_pair(point) == expected
        assert value == RatFunc(twin.num, twin.den)
        assert hash(value) == hash(RatFunc(twin.num, twin.den))


def test_shared_and_split_bases():
    # x^2 - 1 is uncertified; x + 1 is certified and divides it, so the
    # product and the sum refine x^2 - 1 into x + 1 and x - 1
    f = sc(CH, "u1/(x^2 - 1)")
    g = sc(CH, "z/(x + 1)^2")
    assert [(p.render(), k, c) for p, k, c in f.bases] == [("x^2 - 1", 1, False)]
    for value in (f * g, f + g, f * g * g):
        pieces = sorted(p.render() for p, _, _ in value.bases)
        assert pieces == ["x + 1", "x - 1"]
    assert (f * sc(CH, "x - 1")).render() == "(u1)/(x + 1)"


def test_partial_over_an_uncertified_base_with_content():
    # (x + u1)*(x + z) is one uncertified base, primitive in x; d/du1 and
    # d/dz first split off its content in that variable, x + z or x + u1
    f = RatFunc(_poly(CH, "z - u1"), _poly(CH, "((x + u1)*(x + z))^2*(1 + z^2)"))
    assert sorted((p.render(), k) for p, k, _ in f.bases) == [
        ("x^2 + x*u1 + x*z + u1*z", 2), ("z^2 + 1", 1)]
    twin = ExpandedRatFunc(f.num, f.den)
    for var in CH.variables:
        _same(f.derivative(var), twin.partial(var))


def test_substitute_matches_expanded_substitution():
    rng = random.Random(3)
    target = Chart("T", ("x", "u1", "z"))
    for _ in range(5):
        num = Polynomial(CH, {(rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 2)):
                              rng.randint(-4, 4) for _ in range(3)})
        f = RatFunc(num, _poly(CH, "(1 + z^2)^2*(x^2 - 1)"))
        mapping = {"x": target.var("u1") + target.var("z")}
        expected = f.num.substitute(target, mapping) / f.den.substitute(target, mapping)
        assert f.substitute(target, mapping) == expected


def test_certified_base_runs_no_gcd(monkeypatch):
    # every reduction against 1 + z^2 is a trial division
    def refuse(f, g):
        raise AssertionError("poly_gcd ran")

    f, g = sc(CH, "(x + z)/(1 + z^2)^2"), sc(CH, "(x*z - 1)/(1 + z^2)")
    h = sc(CH, "x^2 + z^2 + 1")
    monkeypatch.setattr(algebra, "poly_gcd", refuse)
    for value in (f * g, f + g, f * h, (f + g) * h, f * g * h * h):
        for var in CH.variables:
            value.derivative(var)
    assert (f * sc(CH, "1 + z^2")).render() == "(x + z)/(z^2 + 1)"
