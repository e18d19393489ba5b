"""Parabolic flags, relation checks, symbol algebras, and branch verdicts."""

import random
from fractions import Fraction

import pytest

from flagrank import Analysis, Chart, Distribution, FlagBranch, ParabolicFlag, \
    PointClass, SymbolClass, Verdict, bracket_span, branch_classify, \
    coordinate_field, derived_flag, e_subdistribution, get_model, load_model, \
    parabolic_flag, symbol_algebra_at, symbol_d_function, verify_flag_relations
from flagrank.distribution import Distribution as Dist
from flagrank.models import model_eq3, model_eq4
from flagrank.errors import NotParabolic, NotParabolicNonDeg, RankUnexpected, \
    SingularDistribution
from util import change_frame, rand_invertible, sc, spans_equal, vf

J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))
PDE = Chart("PDE", ("u1", "u2", "u3", "x", "y", "z"))

WALL_SRC = """
chart PDE(u1, u2, u3, x, y, z)
form w1 = d(u1) - (u2)*d(x)
form w2 = d(u2) - (z)*d(x)
form w3 = d(u3) + (y*x^2*u3)*d(x) + (z)*d(y)
dist D = ann(w1, w2, w3)
"""

SINGULAR_SRC = """
chart FR(x1, x2, y, y1, y2, z)
field X1 = @x1
field X2 = @x2
field Y = @y + x1*@y1 + x2*@y2 + ((x1^2 + y*x2^2)/2)*@z
dist D = span(X1, X2, Y)
"""


def test_flag_jet_model():
    d = get_model("j21").distribution()
    flag = parabolic_flag(d)
    assert flag.branch is FlagBranch.DEGENERATE
    assert [s.generic_rank for s in flag.strata] == [1, 2, 3, 4, 5]
    total = vf(J21, 1, "u1", "v1", "u2", 0, 0)
    assert spans_equal(list(flag[1].frame), [coordinate_field(J21, "v1")])
    assert spans_equal(list(flag[4].frame),
                       [total, coordinate_field(J21, "u2"),
                        coordinate_field(J21, "v1"), coordinate_field(J21, "v")])


def test_flag_pde_model():
    d = get_model("eq5").distribution()
    flag = parabolic_flag(d)
    assert flag.branch is FlagBranch.NONDEGENERATE
    w = vf(PDE, 0, 0, "-z", 0, 1, 0)
    dx = vf(PDE, "u2", "z", 0, 1, 0, 0)
    assert spans_equal(list(flag[1].frame), [w])
    assert spans_equal(list(flag[4].frame),
                       [dx, w, coordinate_field(PDE, "z"),
                        coordinate_field(PDE, "u3")])


def test_flag_flat_d1_model():
    d = get_model("g1_flat").distribution()
    flag = parabolic_flag(d)
    assert spans_equal(list(flag[1].frame), [d.frame[1]])  # the DY direction


def test_flag_requires_parabolic_class():
    d = get_model("elliptic").distribution()
    with pytest.raises(NotParabolic):
        parabolic_flag(d)


def test_flag_relations_hold_on_catalog():
    for name in ("j21", "eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat"):
        flag = parabolic_flag(get_model(name).distribution())
        checks = verify_flag_relations(flag)
        assert checks and all(c.holds for c in checks), name


def test_flag_relations_catch_corrupted_line():
    d = get_model("eq5").distribution()
    flag = parabolic_flag(d)
    generic_line = Dist(PDE, (d.frame[0] + d.frame[1],))
    corrupted = ParabolicFlag((generic_line,) + flag.strata[1:], flag.branch)
    failed = {c.name for c in verify_flag_relations(corrupted) if not c.holds}
    assert "[D1,D4]=D4" in failed


def test_symbol_flat_g0_model():
    d = get_model("eq5").distribution()
    algebra, sym_class = symbol_algebra_at(d, PDE.origin())
    assert sym_class is SymbolClass.G0
    assert algebra.d_raw == 0 and algebra.d_normalized == 0


def test_symbol_fourth_order_model():
    d = get_model("eq6").distribution()
    _, sym_class = symbol_algebra_at(d, PDE.origin())
    assert sym_class is SymbolClass.G0


def test_symbol_flat_d1_model():
    d = get_model("g1_flat").distribution()
    algebra, sym_class = symbol_algebra_at(d, d.chart.origin())
    assert sym_class is SymbolClass.G1
    assert algebra.d_raw == Fraction(-1)
    assert algebra.d_normalized == 1


def test_symbol_bracket_table_shape():
    for name in ("eq5", "g1_flat"):
        d = get_model(name).distribution()
        algebra, _ = symbol_algebra_at(d, d.chart.origin())
        assert algebra.constant(1, 3, 4) == 1
        assert algebra.constant(2, 3, 5) == 1
        assert algebra.constant(2, 5, 7) == 1
        assert algebra.constant(1, 2, 3) == 0
        assert algebra.constant(1, 4, 5) == 0
        assert algebra.constant(3, 4, 7) == algebra.d_normalized
        assert algebra.antisymmetry_ok()
        assert algebra.jacobi_ok()
        assert algebra.grading_ok()


def test_symbol_requires_nondegenerate_class():
    d = get_model("j21").distribution()
    with pytest.raises(NotParabolicNonDeg):
        symbol_algebra_at(d, J21.origin())


def test_symbol_class_invariant_under_frame_scaling():
    rng = random.Random(41)
    for name in ("eq5", "g1_flat"):
        d = get_model(name).distribution()
        _, base = symbol_algebra_at(d, d.chart.origin())
        for _ in range(3):
            scales = [Fraction(rng.choice([1, 2, 3, -1, -2])) for _ in range(3)]
            fields = [f.scale(s) for f, s in zip(d.frame, scales)]
            _, sym_class = symbol_algebra_at(Dist(d.chart, fields),
                                             d.chart.origin())
            assert sym_class is base


def test_d_function_constant_models():
    for name, expected in (("eq5", "0"), ("eq6", "0"), ("g1_flat", "-1")):
        d = get_model(name).distribution()
        assert symbol_d_function(d).render() == expected


def test_e_subdistribution_pde_model():
    d = get_model("eq5").distribution()
    flag = parabolic_flag(d)
    sub = e_subdistribution(d, flag)
    dx = vf(PDE, "u2", "z", 0, 1, 0, 0)
    w = vf(PDE, 0, 0, "-z", 0, 1, 0)
    assert spans_equal(list(sub.frame), [dx, w, coordinate_field(PDE, "u3")])


def test_e_subdistribution_transverse_choice_irrelevant():
    d = get_model("eq6").distribution()
    flag = parabolic_flag(d)
    base = e_subdistribution(d, flag)
    line = flag[1].frame[0]
    other = e_subdistribution(d, flag,
                              transverse=flag[2].frame[0] + line.scale(3))
    assert spans_equal(list(base.frame), list(other.frame))


def test_e_subdistribution_rejects_corrupted_flag():
    d = get_model("eq5").distribution()
    flag = parabolic_flag(d)
    corrupted = ParabolicFlag(flag.strata[:3] + (flag[5], flag[5]), flag.branch)
    with pytest.raises(RankUnexpected):
        e_subdistribution(d, corrupted)


def test_b2_integrability_split():
    for name, integrable in (("eq5", True), ("eq6", False), ("g1_flat", True)):
        e_sub = Analysis(get_model(name).distribution()).e_sub
        assert (derived_flag(e_sub)[1].ranks == (3,)) is integrable, name


def test_completely_nondegenerate_catalog():
    for name in ("eq5", "eq6", "g1_flat"):
        assert Analysis(get_model(name).distribution()).completely_nondegenerate


def test_completely_nondegenerate_detects_growth_wall():
    d = load_model(WALL_SRC).primary_dist()[1]
    flag = parabolic_flag(d)
    sub = e_subdistribution(d, flag)
    steps, growth = derived_flag(sub)
    from flagrank import growth_at
    on_wall = growth_at(sub, PDE.point((1, 1, 1, 0, 1, 1)), steps)
    off_wall = growth_at(sub, PDE.point((1, 1, 1, 1, 1, 1)), steps)
    assert off_wall == growth.ranks
    assert on_wall != growth.ranks
    assert not Analysis(d).completely_nondegenerate


def test_branch_verdicts():
    expected = {"j21": Verdict.THEOREM1, "eq5": Verdict.THEOREM3,
                "eq6": Verdict.THEOREM2, "g1_flat": Verdict.OPEN_BRANCH}
    for name, verdict in expected.items():
        report = branch_classify(get_model(name).distribution())
        assert report.verdict is verdict, name


def test_branch_equation_type_flag():
    report = branch_classify(get_model("eq6").distribution())
    assert report.equation_type is True
    report = branch_classify(get_model("eq5").distribution())
    assert report.equation_type is None


def test_branch_rejects_singular_input():
    d = load_model(SINGULAR_SRC).primary_dist()[1]
    with pytest.raises(SingularDistribution):
        branch_classify(d)


def test_branch_rejects_elliptic_input():
    with pytest.raises(NotParabolic):
        branch_classify(get_model("elliptic").distribution())


def test_depth_four_closure_matches_symbol_class():
    for name in ("eq5", "eq6", "eq3_u2", "eq4_z", "g1_flat"):
        d = get_model(name).distribution()
        flag = parabolic_flag(d)
        closed = all(flag[5].echelon().contains(g.coefficients)
                     for g in bracket_span(list(flag[4].frame),
                                           list(flag[4].frame)))
        is_g0 = symbol_d_function(d).is_zero()
        assert closed == is_g0, name


def test_verdict_invariant_under_frame_change():
    rng = random.Random(47)
    for name in ("eq6", "g1_flat"):
        d = get_model(name).distribution()
        base = branch_classify(d)
        changed = change_frame(d, rand_invertible(rng, 3))
        report = branch_classify(changed)
        assert report.verdict is base.verdict
        assert report.symbol_class is base.symbol_class
        assert report.b2_integrable == base.b2_integrable


def test_report_serialization_shape():
    report = branch_classify(get_model("eq6").distribution())
    payload = report.to_json_dict()
    assert payload["verdict"] == "Theorem2"
    assert payload["symbol_class"] == "g0"
    assert payload["equation_type"] is True
    assert payload["scan"]["verdict"] == "regular"
    assert len(payload["flag"]["strata"]) == 5


# Parameters over 1 + w^2 (w is u3 + y*z in eq4) whose symbol frame brackets
# took minutes to solve symbolically; the pointwise symbol needs only jets.
@pytest.mark.parametrize("family, parameter, verdict, b2", [
    ("eq4", "x*u1/(1+w^2)", Verdict.THEOREM2, False),
    ("eq4", "(x^3*u1 - 2*u2^2*z + w^2*x)/(1+w^2)", Verdict.THEOREM2, False),
    ("eq3", "(x^2*u1 + 3*z^3 - u2)/(1+z^2)", Verdict.THEOREM3, True),
])
def test_branch_on_rational_family_parameters(family, parameter, verdict, b2):
    model = model_eq3 if family == "eq3" else model_eq4
    report = branch_classify(model(parameter))
    assert report.verdict is verdict
    assert report.symbol_class is SymbolClass.G0
    assert report.b2_integrable is b2
    assert report.equation_type is (True if verdict is Verdict.THEOREM2 else None)
