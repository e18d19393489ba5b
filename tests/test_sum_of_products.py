"""The fused sum of products against the reference that adds term by term."""

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, OneForm, Polynomial, RatFunc, VectorField, lie_bracket, pairing
from flagrank.algebra import DEGREE_BOUND, sum_of_products
from flagrank.errors import DegreeOverflow
from util import ref_add, ref_derivative, ref_lie_bracket, ref_mul, ref_neg, sc

CH = Chart("A", ("x", "y", "z"))

# Denominators shared by value and by object, distinct, multi-term, powers of
# one another and constant, so groups merge, lcms need gcds and cofactors
# differ.
_DENOMINATORS = ["1", "2", "3", "1 + z^2", "(1 + z^2)^2", "x + y", "(1 + z^2)*(x + y)",
                 "1 + x*y", "2*z - 1"]
_shared_denominators = [sc(CH, text).num for text in _DENOMINATORS]


def _denominators():
    # an equal copy on every draw as well as the shared object
    return st.sampled_from(_DENOMINATORS).flatmap(lambda text: st.sampled_from(
        [sc(CH, text).num, _shared_denominators[_DENOMINATORS.index(text)]]))


_exponents = st.tuples(*[st.integers(0, 2)] * 3)
_polynomials = st.dictionaries(_exponents, st.integers(-3, 3), max_size=3).map(
    lambda terms: Polynomial(CH, terms))
# a numerator with a denominator's factor lets products cancel against the lcm
_numerators = st.one_of(_polynomials, st.tuples(_polynomials, st.sampled_from(
    _shared_denominators)).map(lambda pair: pair[0] * pair[1]))
_factors = st.one_of(st.just(CH.zero()), st.just(CH.one()),
                     st.tuples(_numerators, _denominators()).map(lambda p: RatFunc(*p)))
_triples = st.lists(st.tuples(_factors, _factors, st.sampled_from((1, -1))), max_size=6)


def _reference(triples):
    total = RatFunc(Polynomial.zero(CH), Polynomial.one(CH))
    for a, b, s in triples:
        product = ref_mul(a, b)
        total = ref_add(total, product if s > 0 else ref_neg(product))
    return total


def _same(fast, reference):
    assert fast.num.terms == reference.num.terms
    assert fast.den.terms == reference.den.terms


@settings(max_examples=300, deadline=None)
@given(_triples)
def test_sum_of_products_matches_term_by_term_reference(triples):
    _same(sum_of_products(CH, triples), _reference(triples))


@settings(max_examples=100, deadline=None)
@given(_triples, st.randoms(use_true_random=False))
def test_cancelling_sums_give_the_shared_zero(triples, rng):
    # each product again with the other sign and the factors swapped
    cancelled = triples + [(b, a, -s) for a, b, s in triples]
    rng.shuffle(cancelled)
    assert sum_of_products(CH, cancelled) is CH.zero()


_fields = st.lists(_factors, min_size=3, max_size=3).map(
    lambda coefficients: VectorField(CH, coefficients))


@settings(max_examples=100, deadline=None)
@given(_fields, _fields)
def test_lie_bracket_over_mixed_denominators_matches_reference(x, y):
    fast, reference = lie_bracket(x, y), ref_lie_bracket(x, y)
    for a, b in zip(fast.coefficients, reference.coefficients):
        _same(a, b)


@settings(max_examples=100, deadline=None)
@given(_fields, _factors)
def test_apply_matches_reference(x, f):
    reference = RatFunc(Polynomial.zero(CH), Polynomial.one(CH))
    for c, var in zip(x.coefficients, CH.variables):
        reference = ref_add(reference, ref_mul(c, ref_derivative(f, var)))
    _same(x.apply(f), reference)


@settings(max_examples=100, deadline=None)
@given(_fields, st.lists(_factors, min_size=3, max_size=3))
def test_pairing_matches_reference(x, coefficients):
    reference = RatFunc(Polynomial.zero(CH), Polynomial.one(CH))
    for a, b in zip(coefficients, x.coefficients):
        reference = ref_add(reference, ref_mul(a, b))
    _same(pairing(OneForm(CH, coefficients), x), reference)


def test_products_past_the_degree_bound_raise():
    top = RatFunc(Polynomial.variable(CH, "x") ** (DEGREE_BOUND - 1), Polynomial.one(CH))
    x, y = sc(CH, "x"), sc(CH, "y")
    over = sc(CH, "x/(1 + z^2)")
    for triples in ([(top, x, 1)],
                    [(top, x, 1), (y, y, 1)],
                    [(y, y, 1), (x, top, -1)],
                    [(top, x, 1), (top, x, -1)],
                    [(top, over, 1), (y, over, 1)],
                    [(over, top, 1), (over, top, -1)]):
        with pytest.raises(DegreeOverflow):
            sum_of_products(CH, triples)
    # one degree less stays inside the bound
    below = sum_of_products(CH, [(top, CH.one(), 1), (y, y, 1)])
    assert below.num.total_degree() == DEGREE_BOUND - 1


def test_degree_bound_applies_after_cross_cancellation():
    # x^(2^31 - 2)*(1 + z) times x/(1 + z) is x^(2^31 - 1), as with ``*``,
    # though the unreduced product's numerator has degree 2^31
    one = Polynomial.one(CH)
    x, y, z = (Polynomial.variable(CH, v) for v in "xyz")
    top = RatFunc(x ** (DEGREE_BOUND - 2) * (one + z), one)
    over, ys = sc(CH, "x/(1 + z)"), sc(CH, "y")
    high = x ** (DEGREE_BOUND - 1)
    for triples, num in (([(top, over, 1), (ys, ys, 1)], high + y * y),
                         ([(ys, ys, 1), (over, top, -1)], y * y - high)):
        _same(sum_of_products(CH, triples), RatFunc(num, one))
