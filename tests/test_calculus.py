"""Lie brackets, pairings, and bracket identities."""

import random

import pytest

from flagrank import Chart, OneForm, Polynomial, RatFunc, VectorField, \
    coordinate_field, lie_bracket, pairing
from hypothesis import given, settings, strategies as st

from flagrank.errors import ChartMismatch
from util import rand_ratfunc, ref_add, ref_derivative, ref_lie_bracket, ref_mul, sc, \
    sparse_ratfuncs, vf

CH = Chart("A", ("x", "y", "z"))
J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))
PDE = Chart("PDE", ("u1", "u2", "u3", "x", "y", "z"))


def form(chart, *coeffs):
    return OneForm(chart, [sc(chart, c) for c in coeffs])


def test_coordinate_bracket():
    x = coordinate_field(CH, "x")
    xy = vf(CH, 0, "x", 0)
    assert lie_bracket(x, xy) == coordinate_field(CH, "y")


def test_bracket_with_self_vanishes():
    f = vf(CH, "x*y", "1/z", "x + y")
    assert lie_bracket(f, f).is_zero()


def test_jet_total_derivative_bracket():
    total = vf(J21, 1, "u1", "v1", "u2", 0, 0)
    assert lie_bracket(coordinate_field(J21, "u2"), total) == \
        coordinate_field(J21, "u1")


def test_pairing_annihilation_jet():
    total = vf(J21, 1, "u1", "v1", "u2", 0, 0)
    w1 = form(J21, "-u1", 1, 0, 0, 0, 0)
    assert pairing(w1, total).is_zero()


def test_pairing_coordinate_duality():
    assert pairing(form(J21, 1, 0, 0, 0, 0, 0), coordinate_field(J21, "t")) == 1


def test_pairing_pde_model():
    w = form(PDE, 0, 0, 1, 0, "z", 0)      # d(u3) + z d(y)
    field = vf(PDE, 0, 0, "-z", 0, 1, 0)   # @y - z @u3
    assert pairing(w, field).is_zero()


def test_chart_mismatch():
    with pytest.raises(ChartMismatch):
        lie_bracket(coordinate_field(CH, "x"), coordinate_field(J21, "t"))


def _random_field(rng):
    return VectorField(CH, [rand_ratfunc(CH, rng) for _ in range(3)])


def test_bracket_antisymmetry_randomized():
    rng = random.Random(3)
    for _ in range(6):
        a, b = _random_field(rng), _random_field(rng)
        assert lie_bracket(a, b) == -lie_bracket(b, a)


def test_bracket_jacobi_randomized():
    rng = random.Random(5)
    for _ in range(4):
        a, b, c = (_random_field(rng) for _ in range(3))
        total = (lie_bracket(a, lie_bracket(b, c))
                 + lie_bracket(b, lie_bracket(c, a))
                 + lie_bracket(c, lie_bracket(a, b)))
        assert total.is_zero()


def test_bracket_leibniz_randomized():
    rng = random.Random(7)
    for _ in range(5):
        a, b = _random_field(rng), _random_field(rng)
        f = rand_ratfunc(CH, rng)
        left = lie_bracket(a, b.scale(f))
        right = lie_bracket(a, b).scale(f) + b.scale(a.apply(f))
        assert left == right


def test_bracket_bilinearity_over_rationals():
    rng = random.Random(9)
    a, b, c = (_random_field(rng) for _ in range(3))
    assert lie_bracket(a, b + c) == lie_bracket(a, b) + lie_bracket(a, c)
    assert lie_bracket(a.scale(3), b) == lie_bracket(a, b).scale(3)


_fields = st.lists(sparse_ratfuncs(CH, max_exponent=1), min_size=3, max_size=3).map(
    lambda coeffs: VectorField(CH, coeffs))


@settings(max_examples=100, deadline=None)
@given(_fields, _fields)
def test_lie_bracket_matches_unshortcut_reference(x, y):
    assert lie_bracket(x, y) == ref_lie_bracket(x, y)


def _ref_apply(field, f):
    """sum_i X^i d_i f over every coordinate, with no partials kept."""
    total = RatFunc(Polynomial.zero(CH), Polynomial.one(CH))
    for c, var in zip(field.coefficients, CH.variables):
        total = ref_add(total, ref_mul(c, ref_derivative(f, var)))
    return total


_coefficients = sparse_ratfuncs(CH, max_exponent=1)


@settings(max_examples=60, deadline=None)
@given(_coefficients, _coefficients, _coefficients, _coefficients)
def test_brackets_over_shared_coefficients_match_reference(g, a, b, c):
    # g is one object in several slots of several fields, so its partials,
    # kept on first use, are read back by every later apply and bracket
    x = VectorField(CH, [g, a, g])
    y = VectorField(CH, [b, g, g])
    z = VectorField(CH, [g, g, c])
    for field in (x, y, z):
        for f in (g, a, b, c):
            assert field.apply(f) == _ref_apply(field, f)
    for left, right in ((x, y), (y, x), (x, z), (z, y), (y, y)):
        assert lie_bracket(left, right) == ref_lie_bracket(left, right)


def test_reference_bracket_over_three_term_denominators():
    # the unshortcut reference once ran for minutes in poly_gcd on this pair
    x = vf(CH, "(-x*y^2 - 4*x*y)/(2*x*y*z - 4*y^2*z + x)", 0, 1)
    y = vf(CH, "(-x*y)/(x^2*y^2*z^2 + 2*x^2 + 4*y^2)", "3/2", 0)
    assert lie_bracket(x, y) == ref_lie_bracket(x, y)
