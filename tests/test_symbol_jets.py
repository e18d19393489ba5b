"""The symbol at a point from first jets, against its symbolic twin.

``Analysis.bracket_coordinates_at`` evaluates the 15 symbol-frame brackets
at a point from the frame's first jets and solves them in one elimination
over ℚ.  The reference solves each bracket over the function field and only
then evaluates; both must give the same rationals wherever the symbol is
defined.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import get_model, lie_bracket, solve_in_span
from flagrank.classification import sample_points
from flagrank.errors import NotGrowth356, NotParabolicNonDeg, PoleAtPoint
from flagrank.models import model_eq3, model_eq4
from flagrank.parabolic import Analysis
from util import FAMILY_VARIABLES, family_parameter

PARABOLIC_NONDEG = ("eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")
MODELS = {"eq3": model_eq3, "eq4": model_eq4}


def symbolic_bracket_coordinates(fields):
    """The slow twin: each bracket [F_a, F_b], a < b, solved symbolically."""
    columns = [f.coefficients for f in fields]
    solved = []
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            coords = solve_in_span(lie_bracket(fields[a], fields[b]).coefficients,
                                   columns)
            assert coords is not None, f"[F{a},F{b}] left the frame span"
            solved.append(coords)
    return solved


def assert_jets_match_symbolic(dist, n_points=2, seed=0):
    analysis = Analysis(dist)
    solved = symbolic_bracket_coordinates(analysis.symbol_fields)
    checked = 0
    for p in sample_points(dist.chart, seed, 200):
        if checked == n_points:
            break
        try:
            analysis.symbol_at(p)
        except (NotGrowth356, NotParabolicNonDeg, PoleAtPoint):
            continue
        expected = [[c.evaluate(p) for c in coords] for coords in solved]
        assert analysis.bracket_coordinates_at(p) == expected, p.render()
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
