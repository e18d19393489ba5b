"""Derived flags, growth vectors, integrability, and the square-root plane."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, Distribution, OneForm, PointQ, annihilator_frame, \
    coordinate_field, derived_flag, get_model, growth_at, lie_bracket, \
    rank_generic, span_reduce, square_root_subdistribution
from flagrank.classification import Classification
from flagrank.errors import DependentForms, NotRank35, PoleAtPoint
from flagrank.models import catalog_list, model_eq3, model_eq4
from util import brute_growth_at, certified_rank, change_frame, combine, \
    evaluated_growth_at, family_parameter, rand_invertible, rand_polynomial, \
    rank_or_pole, rescaled_frame, sc, spans_equal, vf

J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))
PDE = Chart("PDE", ("u1", "u2", "u3", "x", "y", "z"))
CH = Chart("A", ("x", "y", "z"))


def form(chart, *coeffs):
    return OneForm(chart, [sc(chart, c) for c in coeffs])


def jet_forms():
    return [form(J21, "-u1", 1, 0, 0, 0, 0),
            form(J21, "-u2", 0, 0, 1, 0, 0),
            form(J21, "-v1", 0, 1, 0, 0, 0)]


def test_annihilator_frame_jet_model():
    dist = annihilator_frame(jet_forms())
    assert dist.generic_rank == 3
    total = vf(J21, 1, "u1", "v1", "u2", 0, 0)
    expected = [total, coordinate_field(J21, "u2"), coordinate_field(J21, "v1")]
    assert spans_equal(list(dist.frame), expected)
    assert dist.frame[0] == total


def test_annihilator_frame_pde_model():
    d = get_model("eq5").distribution()
    dx = vf(PDE, "u2", "z", 0, 1, 0, 0)
    w = vf(PDE, 0, 0, "-z", 0, 1, 0)
    assert spans_equal(list(d.frame), [dx, w, coordinate_field(PDE, "z")])


def test_annihilator_single_form():
    two = Chart("T", ("t", "x"))
    dist = annihilator_frame([OneForm(two, [two.const(1), two.const(0)])])
    assert dist.generic_rank == 1
    assert dist.frame[0] == coordinate_field(two, "x")


def test_annihilator_dependent_forms():
    w = form(J21, "-u1", 1, 0, 0, 0, 0)
    scaled = OneForm(J21, [c * sc(J21, "u2") for c in w.coefficients])
    with pytest.raises(DependentForms):
        annihilator_frame([w, scaled])


def test_growth_jet_model():
    _, growth = derived_flag(annihilator_frame(jet_forms()))
    assert growth.ranks == (3, 5, 6)
    assert growth.render() == "(3,5,6)"


def test_growth_integrable_plane():
    d = Distribution(CH, (coordinate_field(CH, "x"), coordinate_field(CH, "y")))
    steps, growth = derived_flag(d)
    assert growth.ranks == (2,)
    assert len(steps) == 1


def test_growth_pde_model_depth_two_span():
    d = get_model("eq5").distribution()
    steps, growth = derived_flag(d)
    assert growth.ranks == (3, 5, 6)
    expected = [vf(PDE, "u2", "z", 0, 1, 0, 0),
                vf(PDE, 0, 0, "-z", 0, 1, 0),
                coordinate_field(PDE, "z"),
                coordinate_field(PDE, "u2"),
                coordinate_field(PDE, "u3")]
    assert spans_equal(list(steps[1].frame), expected)


def test_growth_matches_brute_force_oracle():
    for name in ("j21", "eq5", "eq6", "g1_flat"):
        d = get_model(name).distribution()
        steps, growth = derived_flag(d)
        for coords in ((0,) * 6, (1, -1, 2, 1, -2, 1)):
            p = d.chart.point(coords)
            assert brute_growth_at(d, p) == growth.ranks
            assert growth_at(d, p, steps) == growth.ranks


def _seeded_parameter(rng, variables):
    terms = [f"{rng.choice((-3, -2, -1, 1, 2, 3))}*{rng.choice(variables)}"
             f"*{rng.choice(variables)}^{rng.randint(0, 2)}" for _ in range(3)]
    return " + ".join(terms)


def _flag_inputs():
    rng = random.Random(7)
    inputs = [(spec.name, get_model(spec.name).distribution())
              for spec in catalog_list()]
    for i in range(2):
        eq3 = _seeded_parameter(rng, ("x", "u1", "u2", "z"))
        eq4 = _seeded_parameter(rng, ("x", "u1", "u2", "z", "w"))
        inputs += [(f"eq3-{i}", model_eq3(eq3)), (f"eq4-{i}", model_eq4(eq4))]
    # a pole on the plane x = 1
    pole = f"({_seeded_parameter(rng, ('x', 'z'))})/(x - 1)"
    inputs.append(("eq3-pole", model_eq3(pole)))
    return inputs


_FLAG_INPUTS = _flag_inputs()


@pytest.mark.parametrize("dist", [d for _, d in _FLAG_INPUTS],
                         ids=[name for name, _ in _FLAG_INPUTS])
def test_growth_at_reads_flag_generators_as_nested_prefixes(dist):
    steps, _ = derived_flag(dist)
    last = steps[-1].generators
    for step in steps:
        assert step.generators == last[:len(step.generators)]
    rng = random.Random(3)
    points = [(0, 0, 0, 1, 0, 0)] + [tuple(rng.randint(-2, 2) for _ in range(6))
                                     for _ in range(4)]
    for coords in points:
        p = dist.chart.point(coords)
        # the per-step evaluation of every entry
        try:
            expected = tuple(certified_rank([g.coefficients for g in s.generators],
                                            p, s.generic_rank) for s in steps)
        except PoleAtPoint as exc:
            with pytest.raises(PoleAtPoint, match=re.escape(str(exc))):
                growth_at(dist, p, steps)
        else:
            assert growth_at(dist, p, steps) == expected


_BASES = [spec.name for spec in catalog_list()] + ["eq3", "eq4"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_BASES), st.integers(0, 2 ** 32),
       st.lists(st.tuples(*[st.integers(-2, 2)] * 6), min_size=1, max_size=8))
def test_point_ranks_match_evaluated_ranks_on_rescaled_frames(name, seed, points):
    # rescaled frames put poles, growth drops and non-constant entries on
    # lattice points, so the residual rows of PointRank are evaluated too
    rng = random.Random(seed)
    if name in ("eq3", "eq4"):
        build = model_eq3 if name == "eq3" else model_eq4
        base = build(family_parameter(rng, name, rng.choice((None, "x", "u1"))))
    else:
        base = get_model(name).distribution()
    dist = rescaled_frame(base, rng)
    stages = Classification(dist)
    steps = stages.steps
    full = [f.coefficients for f in stages.frame.full()]
    for coords in points:
        p = dist.chart.point(coords)
        assert rank_or_pole(growth_at, dist, p, steps) == \
            rank_or_pole(evaluated_growth_at, steps, p)
        assert rank_or_pole(stages.frame.rank_at, p) == \
            rank_or_pole(certified_rank, full, p, 6)


def test_growth_at_on_a_polynomial_flag_evaluates_no_entry(monkeypatch):
    # eq6's flag generators are polynomial and reach their generic ranks
    # with constant pivots, so a point needs no evaluation at all
    dist = get_model("eq6").distribution()
    steps, growth = derived_flag(dist)
    assert all(not s.point_rank.denominators and not s.point_rank.residual
               for s in steps)
    reads = []
    homogenized = PointQ.homogenized

    def counted(point, poly):
        reads.append(poly)
        return homogenized(point, poly)

    monkeypatch.setattr(PointQ, "homogenized", counted)
    for coords in ((0,) * 6, (1, -1, 2, 1, -2, 1)):
        assert growth_at(dist, dist.chart.point(coords), steps) == growth.ranks
    assert not reads


def test_growth_invariant_under_function_field_frame_change():
    d = get_model("eq5").distribution()
    _, growth = derived_flag(d)
    rng = random.Random(21)
    changed = 0
    while changed < 3:
        rows = [[rand_polynomial(PDE, rng, max_terms=2, max_degree=1)
                 for _ in range(3)] for _ in range(3)]
        if rank_generic(rows) != 3:
            continue
        fields = [combine(list(d.frame), row) for row in rows]
        _, growth2 = derived_flag(Distribution(PDE, fields))
        assert growth2.ranks == growth.ranks
        changed += 1


def test_frobenius_integrable_plane():
    d = Distribution(CH, (coordinate_field(CH, "x"), coordinate_field(CH, "y")))
    assert derived_flag(d)[1].ranks == (2,)


def test_frobenius_non_integrable():
    d = Distribution(CH, (coordinate_field(CH, "x"),
                          vf(CH, 0, 1, "x")))
    assert derived_flag(d)[1].ranks == (2, 3)


def test_frobenius_square_root_of_pde_model():
    d = get_model("eq5").distribution()
    assert derived_flag(square_root_subdistribution(d))[1].ranks == (2,)


def test_square_root_jet_model():
    d = annihilator_frame(jet_forms())
    plane = square_root_subdistribution(d)
    assert spans_equal(list(plane.frame),
                       [coordinate_field(J21, "u2"), coordinate_field(J21, "v1")])


def test_square_root_fourth_order_model():
    d = get_model("eq6").distribution()
    plane = square_root_subdistribution(d)
    x1 = vf(PDE, "u2", "z", "-(y*u3 + y^2*z)", 1, 0, "u3 + y*z")
    w = vf(PDE, 0, 0, "-z", 0, 1, 0)
    assert spans_equal(list(plane.frame), [x1, w])


def test_square_root_flat_d1_model():
    d = get_model("g1_flat").distribution()
    plane = square_root_subdistribution(d)
    assert spans_equal(list(plane.frame), [d.frame[0], d.frame[1]])


def test_square_root_self_bracket_stays_inside():
    for name in ("j21", "eq5", "eq6", "g1_flat"):
        d = get_model(name).distribution()
        plane = square_root_subdistribution(d)
        a, b = plane.frame
        assert d.echelon().contains(lie_bracket(a, b).coefficients)


def test_square_root_unique_under_frame_change():
    d = get_model("eq6").distribution()
    base = square_root_subdistribution(d)
    rng = random.Random(17)
    for _ in range(3):
        changed = change_frame(d, rand_invertible(rng, 3))
        other = square_root_subdistribution(changed)
        assert spans_equal(list(base.frame), list(other.frame))


def test_square_root_requires_rank_35():
    d = Distribution(CH, (coordinate_field(CH, "x"), coordinate_field(CH, "y"),
                          coordinate_field(CH, "z")))
    with pytest.raises(NotRank35):
        square_root_subdistribution(d)


def test_span_reduce_rows_have_unit_pivots():
    d = get_model("eq6").distribution()
    line = vf(PDE, 0, 0, "-z", 0, 1, 0)
    reduced = span_reduce(list(d.frame) + [lie_bracket(line, f) for f in d.frame])
    origin = PDE.origin()
    # normalized frames stay pointwise independent wherever defined
    from util import pointwise_rank
    assert pointwise_rank(reduced, origin) == len(reduced)
