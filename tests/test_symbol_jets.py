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

PARABOLIC_NONDEG = ("eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")
FAMILY_VARIABLES = {"eq3": ("x", "u1", "u2", "z"),
                    "eq4": ("x", "u1", "u2", "z", "w")}
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
    stream = sample_points(dist.chart, seed)
    checked = 0
    for _ in range(200):
        if checked == n_points:
            break
        p = next(stream)
        try:
            analysis.symbol_at(p)
        except (NotGrowth356, NotParabolicNonDeg, PoleAtPoint):
            continue
        expected = [[c.evaluate(p) for c in coords] for coords in solved]
        assert analysis.bracket_coordinates_at(p) == expected, p.render()
        checked += 1
    assert checked == n_points


def family_parameter(rng, family, denominator):
    """A parameter with monomials of degree 1, 2 and 3, over 1 + v^2 or not."""
    variables = FAMILY_VARIABLES[family]
    terms = [f"{rng.randint(1, 9) * rng.choice((-1, 1))}*"
             + "*".join(rng.choice(variables) for _ in range(degree))
             for degree in (1, 2, 3)]
    text = " + ".join(terms)
    return text if denominator is None else f"({text})/(1 + {denominator}^2)"


@pytest.mark.parametrize("name", PARABOLIC_NONDEG)
def test_jets_match_symbolic_on_builtins(name):
    assert_jets_match_symbolic(get_model(name).distribution(), n_points=3)


# Denominators 1 + w^2 stay out of the drawn members: in eq4, w becomes
# u3 + y*z, and on parameters such as x*u1/(1 + w^2) the symbolic reference
# itself runs for minutes.  Such members still need a reference that ends.
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("eq3", "eq4")), st.integers(0, 2 ** 32),
       st.sampled_from((None, "x", "z")))
def test_jets_match_symbolic_on_family_members(family, seed, denominator):
    parameter = family_parameter(random.Random(seed), family, denominator)
    assert_jets_match_symbolic(MODELS[family](parameter), seed=seed % 7)


def test_jets_match_symbolic_over_one_plus_w_squared():
    assert_jets_match_symbolic(model_eq4("1/(1 + w^2)"))
