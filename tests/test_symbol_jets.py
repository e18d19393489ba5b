"""The symbol at a point from first jets, against its symbolic twin.

``Analysis.bracket_coordinates_at`` evaluates the 8 symbol-frame brackets
whose graded slot can hold a constant (``parabolic._PAIRS``) at a point,
from the frame's values and its coefficients' memoised partials, and solves
them in one elimination over ℚ.  The reference solves all 15 brackets over
the function field and only then evaluates: on the kept pairs both must give
the same rationals wherever the symbol is defined, and the symbol built by
the slot rule from all 15 must equal the one ``symbol_at`` reports, so the 7
dropped pairs carry nothing.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import algebra, get_model, lie_bracket, solve_in_span
from flagrank.classification import sample_points
from flagrank.errors import NotGrowth356, NotParabolicNonDeg, PoleAtPoint
from flagrank.models import model_eq3, model_eq4
from flagrank.parabolic import _PAIRS, Analysis, SymbolAlgebra
from util import FAMILY_VARIABLES, family_parameter

PARABOLIC_NONDEG = ("eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")
MODELS = {"eq3": model_eq3, "eq4": model_eq4}
LABELS = (1, 2, 3, 4, 5, 7)
ALL_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]


def test_kept_pairs_are_the_slots_at_or_above_weight_minus_seven():
    assert _PAIRS == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3))


def symbolic_bracket_coordinates(fields):
    """The slow twin: each of the 15 brackets [F_a, F_b], a < b, solved
    symbolically."""
    columns = [f.coefficients for f in fields]
    solved = []
    for a, b in ALL_PAIRS:
        coords = solve_in_span(lie_bracket(fields[a], fields[b]).coefficients,
                               columns)
        assert coords is not None, f"[F{a},F{b}] left the frame span"
        solved.append(coords)
    return solved


def slot_rule_symbol(point, coordinates):
    """The ``SymbolAlgebra`` of all 15 brackets' coordinates at a point:
    components in the pair's graded slot are constants, deeper ones are
    grading violations, and a nonzero d is normalized to 1."""
    constants, violations = {}, []
    for (a, b), coords in zip(ALL_PAIRS, coordinates):
        i, j = LABELS[a], LABELS[b]
        comps = {}
        for k, value in zip(LABELS, coords):
            if value and k == i + j:
                comps[k] = value
            elif value and k > i + j:
                violations.append(f"[e{i},e{j}] has a component on e{k}")
        constants[(i, j)] = comps
    d_raw = constants[(3, 4)].get(7, Fraction(0))
    if d_raw:
        constants[(3, 4)] = {7: Fraction(1)}
    return SymbolAlgebra(point, constants, d_raw, int(d_raw != 0), tuple(violations))


def assert_jets_match_symbolic(dist, n_points=2, seed=0):
    analysis = Analysis(dist)
    solved = symbolic_bracket_coordinates(analysis.symbol_fields)
    checked = 0
    for p in islice(sample_points(dist.chart, seed), 200):
        if checked == n_points:
            break
        try:
            algebra_at, _ = analysis.symbol_at(p)
        except (NotGrowth356, NotParabolicNonDeg, PoleAtPoint):
            continue
        values = [[c.evaluate(p) for c in coords] for coords in solved]
        kept = [values[ALL_PAIRS.index(pair)] for pair in _PAIRS]
        assert analysis.bracket_coordinates_at(p) == kept, p.render()
        assert algebra_at.to_json_dict() == \
            slot_rule_symbol(p, values).to_json_dict(), p.render()
        checked += 1
    assert checked == n_points


@pytest.mark.parametrize("name", PARABOLIC_NONDEG)
def test_jets_match_symbolic_on_builtins(name):
    assert_jets_match_symbolic(get_model(name).distribution(), n_points=3)


# A denominator 1 + v^2 over any parameter variable v; in eq4, w becomes
# u3 + y*z, so 1 + w^2 has three variables.
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("eq3", "eq4")).flatmap(lambda family: st.tuples(
           st.just(family), st.sampled_from((None,) + FAMILY_VARIABLES[family]))),
       st.integers(0, 2 ** 32))
def test_jets_match_symbolic_on_family_members(member, seed):
    family, denominator = member
    parameter = family_parameter(random.Random(seed), family, denominator)
    assert_jets_match_symbolic(MODELS[family](parameter), seed=seed % 7)


def test_jets_match_symbolic_over_one_plus_w_squared():
    assert_jets_match_symbolic(model_eq4("1/(1 + w^2)"))


@pytest.mark.parametrize("name, parameter", [("eq6", None),
                                             ("eq4", "(3*x - 2*u1*z)/(1 + w^2)")])
def test_symbol_sample_differentiates_nothing(monkeypatch, name, parameter):
    # the brackets that built the symbol frame and the d-function already
    # differentiated F1..F5, and no kept pair has F7
    dist = get_model(name).distribution() if parameter is None \
        else MODELS[name](parameter)
    analysis = Analysis(dist)
    analysis.d_function
    calls = []
    derivative, partial = algebra.Polynomial.derivative, algebra.RatFunc._partial

    def counted_derivative(poly, var):
        calls.append(("derivative", var))
        return derivative(poly, var)

    def counted_partial(f, var):
        calls.append(("_partial", var))
        return partial(f, var)

    monkeypatch.setattr(algebra.Polynomial, "derivative", counted_derivative)
    monkeypatch.setattr(algebra.RatFunc, "_partial", counted_partial)
    analysis._find_symbol_sample()
    assert calls == []
