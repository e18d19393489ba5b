"""Bracket each pair once, eliminate each basis once: against the old twins.

``bracket_span`` brackets each unordered pair once and keeps each bracket
once up to sign, ``derived_flag`` brackets the frame only against the
generators its previous step added, ``spans_equal`` (a helper in ``util``)
eliminates one side, and the bracket form and the d-function read one
coordinate off a residual.  The references below are the all-ordered-pairs,
two-echelon and kernel-solve versions these replaced; spans, ranks, frames
and coordinates must agree.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, VectorField, adapted_frame, bracket_form, get_model, \
    growth_at, lie_bracket, solve_in_span, span_reduce
from flagrank.classification import sample_points
from flagrank.distribution import Distribution, GrowthVector, bracket_span, \
    derived_flag
from flagrank.errors import PoleAtPoint
from flagrank.linalg import Echelon
from flagrank.models import catalog_list, model_eq3, model_eq4
from flagrank.parabolic import Analysis
from util import family_parameter, rand_invertible, sparse_ratfuncs, \
    spans_equal, transformed_frame

MODELS = {"eq3": model_eq3, "eq4": model_eq4}
BUILTINS = [spec.name for spec in catalog_list()]
PARABOLIC_NONDEG = ("eq5", "eq3_u2", "eq6", "eq4_z", "g1_flat")
CH = Chart("A", ("x", "y", "z"))


# --- the old twins -----------------------------------------------------------

def ref_bracket_span(fields_a, fields_b):
    """Every ordered pair bracketed; only exact duplicates dropped."""
    gens = list(fields_a)
    seen = set(gens)
    for g in fields_b:
        if g not in seen:
            seen.add(g)
            gens.append(g)
    for a in fields_a:
        for b in fields_b:
            br = lie_bracket(a, b)
            if br.is_zero():
                continue
            if br not in seen:
                seen.add(br)
                gens.append(br)
    return gens


def ref_derived_flag(dist):
    """Each step brackets the frame against every generator of the last one."""
    gens = list(dist.frame)
    steps = [Distribution(dist.chart, span_reduce(gens), generators=gens)]
    ranks = [len(steps[0].frame)]
    while ranks[-1] < dist.chart.dimension:
        gens = ref_bracket_span(dist.frame, gens)
        basis = span_reduce(gens)
        if len(basis) == ranks[-1]:
            break
        steps.append(Distribution(dist.chart, basis, generators=gens))
        ranks.append(len(basis))
    return steps, GrowthVector(ranks)


def ref_spans_equal(fields_a, fields_b):
    width = (fields_a or fields_b)[0].chart.dimension
    ech_a = Echelon(width, [f.coefficients for f in fields_a])
    ech_b = Echelon(width, [f.coefficients for f in fields_b])
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains(f.coefficients) for f in fields_b)


def ref_form_entries(frame):
    columns = [f.coefficients for f in frame.full()]
    return [solve_in_span(lie_bracket(x, y).coefficients, columns)[5]
            for x in (frame.x1, frame.x2) for y in (frame.y1, frame.y2)]


def ref_d_function(fields):
    return solve_in_span(lie_bracket(fields[2], fields[3]).coefficients,
                         [f.coefficients for f in fields])[5]


# --- (a) bracket spans and the derived flag ----------------------------------

def pointwise_growth(dist, steps, point):
    try:
        return growth_at(dist, point, steps)
    except PoleAtPoint:
        return "pole"


def assert_sign_free_prefixes(steps):
    for step, following in zip(steps, steps[1:]):
        assert following.generators[:len(step.generators)] == step.generators
    gens = steps[-1].generators
    for i, g in enumerate(gens):
        assert not g.is_zero()
        assert g not in gens[:i] and -g not in gens[:i]


def assert_flag_matches_reference(dist, seed=0):
    steps, growth = derived_flag(dist)
    ref_steps, ref_growth = ref_derived_flag(dist)
    assert growth == ref_growth
    assert [[f.render() for f in s.frame] for s in steps] == \
        [[f.render() for f in s.frame] for s in ref_steps]
    assert [s.generic_rank for s in steps] == list(growth.ranks)
    assert_sign_free_prefixes(steps)
    assert len(steps[-1].generators) <= len(ref_steps[-1].generators)
    for p in islice(sample_points(dist.chart, seed), 10):
        assert pointwise_growth(dist, steps, p) == \
            pointwise_growth(dist, ref_steps, p), p.render()


@pytest.mark.parametrize("name", BUILTINS)
def test_derived_flag_matches_all_pairs_reference_on_builtins(name):
    assert_flag_matches_reference(get_model(name).distribution())


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(("eq3", "eq4")), st.integers(0, 2 ** 32),
       st.sampled_from((None, "x", "z")))
def test_derived_flag_matches_all_pairs_reference_on_family_members(
        family, seed, denominator):
    parameter = family_parameter(random.Random(seed), family, denominator)
    assert_flag_matches_reference(MODELS[family](parameter), seed=seed % 7)


@pytest.mark.parametrize("name", BUILTINS)
def test_bracket_span_matches_all_pairs_reference(name):
    frame = get_model(name).distribution().frame
    gens = bracket_span(frame, frame)
    assert spans_equal(gens, ref_bracket_span(frame, frame))
    assert_sign_free_prefixes([Distribution(frame[0].chart, frame),
                               Distribution(frame[0].chart, gens)])
    # three frame fields, then at most one bracket per unordered pair
    assert len(gens) <= 3 + 3


# --- (b) containment-first span equality -------------------------------------

def fields_of(rows):
    return [VectorField(CH, row) for row in rows]


field_lists = st.lists(st.lists(sparse_ratfuncs(CH), min_size=3, max_size=3),
                       max_size=3).map(fields_of)


def combinations(fields, coefficients):
    """Each row of ``coefficients`` applied to ``fields``, as one field."""
    out = []
    for row in coefficients:
        combo = VectorField(CH, [CH.zero()] * 3)
        for c, f in zip(row, fields):
            combo = combo + f.scale(c)
        out.append(combo)
    return out


@settings(max_examples=60, deadline=None)
@given(field_lists, field_lists,
       st.lists(st.lists(sparse_ratfuncs(CH), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_spans_equal_matches_two_echelon_reference(base, other, coefficients):
    respanned = combinations(base, [row[:len(base)] for row in coefficients])
    pairs = [
        (base, other), (other, base),                       # mostly a ⊄ b
        (respanned, base), (base, respanned),               # other frames, maybe equal
        (base + respanned, base), (base + base, base),      # rank-deficient a
        (base, base + other), ([], base), (base, []),       # empty lists
    ]
    for a, b in pairs:
        if a or b:
            assert spans_equal(a, b) == ref_spans_equal(a, b)


def test_spans_equal_on_empty_and_zero_lists():
    x, y = VectorField(CH, [1, 0, 0]), VectorField(CH, [0, 1, 0])
    zero = VectorField(CH, [0, 0, 0])
    cases = [([], [x]), ([x], []), ([zero], []), ([], [zero]), ([zero, x], [x]),
             ([x, y], [y, x]), ([x + y, x - y], [x, y]), ([x, x], [x, y])]
    for a, b in cases:
        assert spans_equal(a, b) == ref_spans_equal(a, b), (a, b)


# --- (c) one coordinate from a residual --------------------------------------

def assert_form_matches_solve(dist, frame):
    form = bracket_form(dist, frame)
    assert [form.a11, form.a12, form.a21, form.a22] == ref_form_entries(frame)


@pytest.mark.parametrize("name", BUILTINS)
def test_bracket_form_matches_kernel_solve(name):
    dist = get_model(name).distribution()
    frame = adapted_frame(dist)
    assert_form_matches_solve(dist, frame)
    rng = random.Random(name)
    for _ in range(2):
        scaled = transformed_frame(frame, y_scale=rng.choice((2, -1, 3)),
                                   z_scale=rng.choice((1, -2, 5)),
                                   basis=rand_invertible(rng, 2))
        assert_form_matches_solve(dist, scaled)


@pytest.mark.parametrize("name", PARABOLIC_NONDEG)
def test_d_function_matches_kernel_solve(name):
    analysis = Analysis(get_model(name).distribution())
    assert analysis.d_function == ref_d_function(analysis.symbol_fields)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(("eq3", "eq4")), st.integers(0, 2 ** 32),
       st.sampled_from((None, "x", "z")))
def test_form_and_d_function_match_kernel_solve_on_family_members(
        family, seed, denominator):
    dist = MODELS[family](family_parameter(random.Random(seed), family, denominator))
    analysis = Analysis(dist)
    assert_form_matches_solve(dist, analysis.frame)
    assert analysis.d_function == ref_d_function(analysis.symbol_fields)
