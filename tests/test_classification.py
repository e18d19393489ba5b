"""Adapted frames, the symmetric bracket form, and the point trichotomy."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Analysis, Chart, Distribution, Echelon, PointClass, PointQ, \
    adapted_frame, bracket_form, classification, classify_form_generic, \
    coordinate_field, get_model, lie_bracket, load_model, regularity_scan, \
    sample_points
from flagrank.errors import NotGrowth356, PoleAtPoint, SampleBudgetExhausted
from util import SINGULAR_SRC, fraction_sample_points, rand_invertible, \
    change_frame, sc, transformed_frame, vf

J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))
PDE = Chart("PDE", ("u1", "u2", "u3", "x", "y", "z"))

def singular_model():
    return load_model(SINGULAR_SRC).primary_dist()[1]


def test_adapted_frame_jet_model():
    d = get_model("j21").distribution()
    fr = adapted_frame(d)
    assert fr.x1 == coordinate_field(J21, "u2")
    assert fr.x2 == coordinate_field(J21, "v1")
    assert fr.y == vf(J21, 1, "u1", "v1", "u2", 0, 0)
    assert fr.y1 == -coordinate_field(J21, "u1")
    assert fr.y2 == -coordinate_field(J21, "v")
    assert fr.z == coordinate_field(J21, "u")


def test_adapted_frame_pde_model():
    d = get_model("eq5").distribution()
    fr = adapted_frame(d)
    assert fr.x1 == vf(PDE, "u2", "z", 0, 1, 0, 0)
    assert fr.x2 == vf(PDE, 0, 0, "-z", 0, 1, 0)
    assert fr.y == coordinate_field(PDE, "z")
    assert fr.y1 == coordinate_field(PDE, "u2")
    assert fr.y2 == -coordinate_field(PDE, "u3")
    assert fr.z == coordinate_field(PDE, "u1")


def test_adapted_frame_requires_growth():
    three = Chart("T", ("x", "y", "z"))
    d = Distribution(three, tuple(coordinate_field(three, v) for v in "xyz"))
    with pytest.raises(NotGrowth356):
        adapted_frame(d)


def test_bracket_form_jet_model_vanishes():
    d = get_model("j21").distribution()
    form = bracket_form(d, adapted_frame(d))
    assert form.a11.is_zero() and form.a12.is_zero()
    assert form.a21.is_zero() and form.a22.is_zero()


def test_bracket_form_pde_model_rank_one():
    d = get_model("eq5").distribution()
    form = bracket_form(d, adapted_frame(d))
    assert form.a11 == -1
    assert form.a12.is_zero() and form.a21.is_zero() and form.a22.is_zero()


def test_bracket_form_definition_oracle():
    # [X_i, Y_j] minus its reported Z-component must fall back into the
    # depth-two span; this re-derives the entries without coordinate solving
    for name in ("eq5", "eq6", "g1_flat", "elliptic", "hyperbolic"):
        d = get_model(name).distribution()
        fr = adapted_frame(d)
        form = bracket_form(d, fr)
        five = Echelon(6, [f.coefficients for f in fr.full()[:5]])
        entries = {("1", "1"): form.a11, ("1", "2"): form.a12,
                   ("2", "1"): form.a21, ("2", "2"): form.a22}
        for (i, j), value in entries.items():
            xi = fr.x1 if i == "1" else fr.x2
            yj = fr.y1 if j == "1" else fr.y2
            residue = lie_bracket(xi, yj) - fr.z.scale(value)
            assert five.contains(residue.coefficients)


def test_elliptic_demo_form_is_definite():
    d = get_model("elliptic").distribution()
    form = bracket_form(d, adapted_frame(d))
    assert form.a11 == -1 and form.a22 == -1
    assert form.a12.is_zero()
    assert Analysis(d).generic_class is PointClass.ELLIPTIC


def test_hyperbolic_demo_form_is_indefinite():
    d = get_model("hyperbolic").distribution()
    form = bracket_form(d, adapted_frame(d))
    assert form.det().constant_value() < 0
    assert Analysis(d).generic_class is PointClass.HYPERBOLIC


def test_classify_at_points():
    assert Analysis(get_model("j21").distribution()).class_at(J21.origin()) \
        is PointClass.PARABOLIC_DEG
    assert Analysis(get_model("eq5").distribution()).class_at(PDE.origin()) \
        is PointClass.PARABOLIC_NONDEG
    hyp = get_model("hyperbolic").distribution()
    assert Analysis(hyp).class_at(hyp.chart.origin()) is PointClass.HYPERBOLIC


def test_classify_matches_scan_samples():
    d = get_model("eq6").distribution()
    report = regularity_scan(d, n_samples=10, seed=3)
    assert report.generic_class is PointClass.PARABOLIC_NONDEG
    for row in report.samples:
        assert Analysis(d).class_at(row.point) is row.point_class


def test_class_invariant_under_frame_transformations():
    rng = random.Random(31)
    for name in ("eq5", "eq6", "g1_flat", "elliptic", "hyperbolic", "j21"):
        d = get_model(name).distribution()
        fr = adapted_frame(d)
        points = list(islice(sample_points(d.chart, 0), 200))
        base = classify_form_generic(bracket_form(d, fr), points)
        for _ in range(4):
            alpha = rng.choice([1, 2, -1, 3, -2])
            beta = rng.choice([1, 2, -1, 3, -2])
            basis = rand_invertible(rng, 2)
            fr2 = transformed_frame(fr, y_scale=alpha, z_scale=beta, basis=basis)
            assert classify_form_generic(bracket_form(d, fr2), points) is base


def test_class_invariant_under_distribution_frame_change():
    rng = random.Random(33)
    for name in ("eq5", "hyperbolic"):
        d = get_model(name).distribution()
        base = Analysis(d).generic_class
        for _ in range(3):
            changed = change_frame(d, rand_invertible(rng, 3))
            assert Analysis(changed).generic_class is base


def test_scan_jet_model_regular():
    d = get_model("j21").distribution()
    report = regularity_scan(d, n_samples=20, seed=0)
    assert report.regular
    assert report.verdict == "regular"
    assert len(report.samples) == 20
    assert all(s.point_class is PointClass.PARABOLIC_DEG for s in report.samples)


def test_scan_fourth_order_model_all_nondegenerate():
    d = get_model("eq6").distribution()
    report = regularity_scan(d, n_samples=20, seed=0)
    assert report.regular
    assert all(s.point_class is PointClass.PARABOLIC_NONDEG
               for s in report.samples)


def test_scan_detects_signature_drift():
    report = regularity_scan(singular_model(), n_samples=20, seed=0)
    assert not report.regular
    assert report.verdict == "singular-detected"
    seen = {s.point_class for s in report.samples}
    assert PointClass.ELLIPTIC in seen and PointClass.HYPERBOLIC in seen


@pytest.mark.parametrize("build", [classification.Classification, Analysis])
def test_sample_count_below_one_is_refused_at_construction(build):
    with pytest.raises(ValueError):
        build(get_model("j21").distribution(), samples=0)


def test_scan_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(classification, "_RETRY_FACTOR", 0)
    d = get_model("j21").distribution()
    with pytest.raises(SampleBudgetExhausted):
        regularity_scan(d, n_samples=20, seed=0)


def test_classify_at_frame_degeneration_reports_pole():
    # the adapted frame of the singular model stays fine at the origin, so
    # probe a model whose frame includes a coordinate-vanishing coefficient
    d = singular_model()
    cls = Analysis(d).class_at(d.chart.origin())
    assert cls is PointClass.PARABOLIC_NONDEG  # watershed point of the drift


@pytest.mark.parametrize("dimension", range(1, 9))
def test_integer_sample_stream_matches_fraction_twin(dimension):
    # the stream is drawn as integer pairs; it must be the points that
    # Fraction(randint(-4, 4), randint(1, 3)) drew, in the same order
    chart = Chart(f"S{dimension}", [f"v{i}" for i in range(dimension)])
    for seed in range(50):
        drawn = islice(sample_points(chart, seed), 30)
        twin = islice(fraction_sample_points(chart, seed), 30)
        assert [p.coordinates for p in drawn] == [p.coordinates for p in twin]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30),
                          st.integers(-12, 12).filter(bool)), min_size=3, max_size=3))
def test_point_from_integer_pairs_matches_point_from_fractions(pairs):
    chart = Chart("P", ("a", "b", "c"))
    lazy = PointQ(chart, pairs)
    eager = PointQ(chart, [Fraction(n, d) for n, d in pairs])
    assert lazy.render() == eager.render()
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy.coordinates == eager.coordinates
    poly = sc(chart, "3*a^2*b - c^3 + 2*a*c + 7").num
    assert lazy.homogenized(poly) == eager.homogenized(poly)
