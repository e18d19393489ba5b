"""Exact linear algebra: ranks, kernels, span coordinates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, kernel_basis, rank_generic, solve_in_span
from flagrank.errors import PoleAtPoint
from flagrank import linalg
from flagrank.linalg import CERTIFICATE_PRIME, Echelon, fraction_rank, \
    fraction_solve
from util import certified_prefix_ranks, certified_rank, gauss_jordan_solve, \
    rand_polynomial, rand_ratfunc, rank_or_pole, ref_div, ref_mul, ref_sub, sc, \
    sparse_ratfuncs, vf

CH = Chart("A", ("x", "y", "z"))
J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))


def _matrix(chart, rows):
    return [[sc(chart, e) for e in row] for row in rows]


def _evaluate(m, point):
    return [[e.evaluate(point) for e in row] for row in m]


def test_rank_identity():
    m = _matrix(CH, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_generic(m) == 3


def test_rank_proportional_rows():
    m = _matrix(CH, [[1, "x"], ["x", "x^2"]])
    assert rank_generic(m) == 1


def test_rank_jet_frame():
    # five fields of the depth-two span of the mixed-jet model
    fields = [
        vf(J21, 1, "u1", "v1", "u2", 0, 0),  # total-derivative direction
        vf(J21, 0, 0, 0, 0, 1, 0),
        vf(J21, 0, 0, 0, 0, 0, 1),
        vf(J21, 0, 0, 0, 1, 0, 0),
        vf(J21, 0, 0, 1, 0, 0, 0),
    ]
    m = [f.coefficients for f in fields]
    assert rank_generic(m) == 5
    # oracle: exact ranks at sample points can only certify from below
    for coords in ((0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6)):
        assert fraction_rank(_evaluate(m, J21.point(coords))) == 5


def test_rank_at_pole():
    m = _matrix(CH, [["1/x"]])
    with pytest.raises(PoleAtPoint):
        fraction_rank(_evaluate(m, CH.point((0, 0, 0))))


def test_no_rows_and_ragged_rows():
    assert rank_generic([]) == 0
    assert kernel_basis([]) == []
    with pytest.raises(ValueError, match="width mismatch"):
        rank_generic(_matrix(CH, [[1, 0], [1]]))


def test_kernel_zero_matrix():
    m = _matrix(CH, [[0, 0], [0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 2


def test_kernel_single_row():
    m = _matrix(CH, [[1, "-x"]])
    (vec,) = kernel_basis(m)
    # kernel of (1, -x) is spanned by (x, 1)
    assert vec[0] == sc(CH, "x") * vec[1]


def test_solve_in_span_scaled_column():
    cols = [[sc(CH, 1), sc(CH, 0)], [sc(CH, 0), sc(CH, 1)]]
    coords = solve_in_span([sc(CH, 2), sc(CH, 0)], cols)
    assert coords == [sc(CH, 2), sc(CH, 0)]


def test_solve_in_span_not_in_span():
    cols = [[sc(CH, 1), sc(CH, 0), sc(CH, 0)]]
    assert solve_in_span([sc(CH, 0), sc(CH, 1), sc(CH, 0)], cols) is None


def test_solve_in_span_reconstructs():
    rng = random.Random(7)
    cols = [[rand_ratfunc(CH, rng) for _ in range(4)] for _ in range(3)]
    weights = [rand_ratfunc(CH, rng) for _ in range(3)]
    target = [sum((w * c for w, c in zip(weights, col_entries)), CH.zero())
              for col_entries in zip(*cols)]
    coords = solve_in_span(target, cols)
    assert coords is not None
    rebuilt = [sum((ci * col[k] for ci, col in zip(coords, cols)), CH.zero())
               for k in range(4)]
    assert rebuilt == target


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for trial in range(5):
        rows = [[rand_ratfunc(CH, rng) for _ in range(4)] for _ in range(2)]
        basis = kernel_basis(rows)
        assert len(basis) == 4 - rank_generic(rows)
        for vec in basis:
            for row in rows:
                assert sum((r * v for r, v in zip(row, vec)), CH.zero()).is_zero()


def test_rank_at_never_exceeds_generic():
    rng = random.Random(13)
    for trial in range(6):
        rows = [[rand_ratfunc(CH, rng) for _ in range(3)] for _ in range(3)]
        generic = rank_generic(rows)
        achieved = 0
        for _ in range(25):
            p = CH.point((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)))
            try:
                r = fraction_rank(_evaluate(rows, p))
            except PoleAtPoint:
                continue
            assert r <= generic
            achieved = max(achieved, r)
        # the exceptional set is thin: some sampled point realizes the rank
        assert achieved == generic


def _exactrank_or_pole(m, point):
    try:
        return fraction_rank(_evaluate(m, point))
    except PoleAtPoint:
        return None


def _certified_or_pole(m, point, generic):
    try:
        return certified_rank(m, point, generic)
    except PoleAtPoint:
        return None


# small grids make points where the rank drops below the generic rank common
_grid = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _rank_deficient_rows(rng, independent, extra, coefficient=rand_ratfunc):
    """``independent`` rows of width 3 and ``extra`` combinations of them, shuffled.

    ``coefficient(chart, rng)`` draws the combinations' coefficients.
    """
    base = []
    for _ in range(independent):
        # a factor x_i - c makes the row vanish, and the rank drop, on a plane
        factor = CH.var(rng.choice(CH.variables)) - rng.choice((-1, 0, 1)) \
            if rng.random() < 0.5 else CH.one()
        base.append([factor * rand_ratfunc(CH, rng) for _ in range(3)])
    # extra rows are function combinations of the others, one coefficient
    # per base row for every column: rank-deficient
    rows = list(base)
    for _ in range(extra):
        coeffs = [coefficient(CH, rng) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), CH.zero())
                     for j in range(3)])
    rng.shuffle(rows)
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 2),
       st.lists(st.tuples(_grid, _grid, _grid), min_size=1, max_size=6))
def test_certified_rank_matches_fraction_rank(seed, independent, extra, points):
    rng = random.Random(seed)
    rows = _rank_deficient_rows(rng, independent, extra)
    generic = rank_generic(rows)
    assert generic <= independent
    for coords in points:
        p = CH.point(coords)
        assert _certified_or_pole(rows, p, generic) == _exactrank_or_pole(rows, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 2),
       st.lists(st.integers(0, 6), min_size=1, max_size=3),
       st.lists(st.tuples(_grid, _grid, _grid), min_size=1, max_size=4),
       st.booleans())
def test_one_pass_prefix_ranks_match_fraction_rank(seed, independent, extra, zeros,
                                                   points, functions):
    rng = random.Random(seed)
    # extra rows combine the others with function or integer coefficients
    rows = _rank_deficient_rows(
        rng, independent, extra,
        rand_ratfunc if functions else lambda chart, draw: chart.const(draw.randint(-2, 2)))
    for at in zeros:
        rows.insert(min(at, len(rows)), [CH.zero()] * 3)
    sizes = sorted(rng.sample(range(len(rows) + 1), rng.randint(1, 3)))
    prefixes = [(size, rank_generic(rows[:size])) for size in sizes]
    for coords in points:
        p = CH.point(coords)
        try:
            pairs = [[f.integer_pair(p) for f in row] for row in rows]
        except PoleAtPoint:
            continue
        assert certified_prefix_ranks(pairs, prefixes) == tuple(
            fraction_rank(_evaluate(rows[:size], p)) for size, _ in prefixes)


def _mixed_entry(rng):
    """Zero, a constant, a polynomial or a quotient, one draw in four each."""
    kind = rng.randrange(4)
    if kind == 0:
        return CH.zero()
    if kind == 1:
        return CH.const(rng.randint(-2, 2))
    if kind == 2:
        return rand_polynomial(CH, rng)
    return rand_ratfunc(CH, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2),
       st.lists(st.tuples(_grid, _grid, _grid), min_size=1, max_size=6))
def test_point_rank_matches_evaluated_rank(seed, n_rows, width, extra, points):
    # extra rows are function combinations of the drawn ones, so ranks drop
    # and residual rows keep non-constant entries
    rng = random.Random(seed)
    rows = [[_mixed_entry(rng) for _ in range(width)] for _ in range(n_rows)]
    for _ in range(extra):
        coeffs = [_mixed_entry(rng) for _ in range(n_rows)]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), CH.zero())
                     for j in range(width)])
    rng.shuffle(rows)
    generic = rank_generic(rows)
    point_rank = linalg.PointRank(rows)
    assert point_rank.pivots + len(point_rank.residual) >= generic
    for coords in points:
        p = CH.point(coords)
        assert rank_or_pole(point_rank.rank_at, p, generic) == \
            rank_or_pole(certified_rank, rows, p, generic)


def test_point_rank_pivots_on_constants_only():
    m = _matrix(CH, [["x", 1, "y"], [1, "x", "z"], [2, "2*x", "2*z"]])
    point_rank = linalg.PointRank(m)
    assert point_rank.pivots == 1 and point_rank.denominators == ()
    # the rows [1 - x^2, z - x*y] and twice it are left; the rank drops
    # where both entries vanish
    assert len(point_rank.residual) == 2
    assert point_rank.rank_at(CH.point((1, 0, 0)), 2) == 1
    assert point_rank.rank_at(CH.point((2, 0, 0)), 2) == 2
    m = _matrix(CH, [[1, "1/(x - y)"], [0, 1]])
    point_rank = linalg.PointRank(m)
    assert (point_rank.pivots, point_rank.residual) == (2, [])
    with pytest.raises(PoleAtPoint, match=r"denominator vanishes at \(2, 2, 0\)"):
        point_rank.rank_at(CH.point((2, 2, 0)), 2)
    assert point_rank.rank_at(CH.point((2, 1, 0)), 2) == 2


def _pairs(vectors):
    return [[(q.numerator, q.denominator) for q in v] for v in vectors]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_grid, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(_grid, min_size=n, max_size=n), max_size=3))))
def test_fraction_solve_reconstructs_every_target(system):
    columns, targets = system
    n = len(columns)
    if fraction_rank(columns) < n:
        with pytest.raises(ValueError):
            fraction_solve(_pairs(columns), _pairs(targets))
        return
    solved = fraction_solve(_pairs(columns), _pairs(targets))
    assert len(solved) == len(targets)
    for target, coords in zip(targets, solved):
        assert [sum(c * col[i] for c, col in zip(coords, columns))
                for i in range(n)] == target


# n/d with d of either sign and not always coprime to n, as integer_pair gives
_pair = st.tuples(st.integers(-4, 4), st.integers(1, 4).flatmap(
    lambda d: st.sampled_from((d, -d))))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_pair, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(_pair, min_size=n, max_size=n), max_size=3),
    st.sampled_from(("as drawn", "zero pivot", "zero column", "repeated column")))))
def test_fraction_solve_matches_gauss_jordan_twin(system):
    # the fraction-free elimination against the Fraction one it replaced:
    # a zero first pivot forces a row swap, and a zero or repeated column
    # makes the columns singular
    columns, targets, shape = system
    n = len(columns)
    if shape == "zero pivot":
        columns[0][0] = (0, 1)
    elif shape == "zero column":
        columns[-1] = [(0, 1)] * n
    elif shape == "repeated column" and n > 1:
        columns[-1] = [(-2 * a, b) for a, b in columns[0]]

    def values(vectors):
        return [[Fraction(a, b) for a, b in v] for v in vectors]

    try:
        expected = gauss_jordan_solve(values(columns), values(targets))
    except ValueError:
        with pytest.raises(ValueError, match="not a basis"):
            fraction_solve(columns, targets)
        return
    solved = fraction_solve(columns, targets)
    assert solved == expected
    assert all(type(c) is Fraction for coords in solved for c in coords)


def test_rank_generic_inserts_small_rows_first():
    # five full-rank rows that took minutes to eliminate in their shuffled
    # order; the two large ones are never eliminated once the rest span
    rng = random.Random(424997160)
    base = []
    for _ in range(3):
        factor = CH.var(rng.choice(CH.variables)) - rng.choice((-1, 0, 1)) \
            if rng.random() < 0.5 else CH.one()
        base.append([factor * rand_ratfunc(CH, rng) for _ in range(3)])
    rows = base + [
        [sum((rand_ratfunc(CH, rng) * row[j] for row in base), CH.zero())
         for j in range(3)]
        for _ in range(2)]
    rng.shuffle(rows)
    assert rank_generic(rows) == 3


def test_certified_rank_below_generic_rank():
    m = _matrix(CH, [["x", 1, "y"], [1, "x", "z"]])
    assert rank_generic(m) == 2
    assert certified_rank(m, CH.point((1, 1, 1)), 2) == 1
    assert certified_rank(m, CH.point((1, 1, 2)), 2) == 2
    assert certified_rank(m, CH.point((0, 0, 0)), 2) == 2


def _counting_fraction_rank(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return fraction_rank(rows)

    monkeypatch.setattr(linalg, "fraction_rank", counted)
    return calls


def test_certified_rank_falls_back_on_denominator_divisible_by_p(monkeypatch):
    calls = _counting_fraction_rank(monkeypatch)
    m = _matrix(CH, [["1/x", 0], [0, 1]])
    p = CERTIFICATE_PRIME
    assert certified_rank(m, CH.point((p, 0, 0)), 2) == 2
    assert calls == [[[Fraction(1, p), 0], [0, 1]]]
    assert certified_rank(m, CH.point((p + 1, 0, 0)), 2) == 2
    assert len(calls) == 1


def test_one_pass_falls_back_only_for_prefixes_past_a_denominator_divisible_by_p(
        monkeypatch):
    calls = _counting_fraction_rank(monkeypatch)
    p = CERTIFICATE_PRIME
    point = CH.point((p, 1, 0))
    m = _matrix(CH, [[1, 0, 0], [0, 0, 0], ["y", 1, 0], [0, "x", "1/x"], [1, 1, 1]])
    pairs = [[f.integer_pair(point) for f in row] for row in m]
    assert pairs[3][2] == (1, p)
    # only the last prefix holds the row over p: one fallback, on its rows
    assert certified_prefix_ranks(pairs, [(1, 1), (3, 2), (4, 3)]) == (1, 2, 3)
    assert calls == [_evaluate(m[:4], point)]
    # every prefix that must read that row falls back once; the others do not
    del calls[:]
    assert certified_prefix_ranks(pairs, [(2, 1), (4, 3), (5, 3)]) == (1, 3, 3)
    assert calls == [_evaluate(m[:4], point), _evaluate(m, point)]
    # a prefix whose rank is reached before that row never reads it
    del calls[:]
    m = _matrix(CH, [[1, 0], [0, 1], ["1/x", 0]])
    pairs = [[f.integer_pair(point) for f in row] for row in m]
    assert certified_prefix_ranks(pairs, [(2, 2), (3, 2)]) == (2, 2)
    assert not calls


def test_certified_rank_falls_back_when_p_divides_a_minor(monkeypatch):
    calls = _counting_fraction_rank(monkeypatch)
    m = _matrix(CH, [["x", 1], [1, 1]])
    # det = x - 1 vanishes mod p, not over the rationals
    assert certified_rank(m, CH.point((CERTIFICATE_PRIME + 1, 0, 0)), 2) == 2
    assert len(calls) == 1


def test_certified_rank_raises_at_a_pole():
    m = _matrix(CH, [[1, 0], [0, "1/(x - y)"]])
    with pytest.raises(PoleAtPoint, match="denominator vanishes at"):
        certified_rank(m, CH.point((2, 2, 0)), 2)


def test_echelon_full_rank_takes_no_more_rows():
    ech = Echelon(2, _matrix(CH, [["x", 1], [1, "y"]]))
    rows = list(ech.rows)
    assert not ech.add(_matrix(CH, [["1/(x - y)", "x^2*z"]])[0])
    assert ech.rows == rows and ech.rank == 2
    with pytest.raises(ValueError, match="width mismatch"):
        ech.add(_matrix(CH, [[1]])[0])


class _ReferenceEchelon:
    """``Echelon`` without the zero shortcuts: every entry is recomputed."""

    def __init__(self, width):
        self.rows = []
        self.pivots = []

    def residual(self, vector):
        v = list(vector)
        for row, (col, _) in zip(self.rows, self.pivots):
            c = v[col]
            v = [ref_sub(a, ref_mul(c, b)) for a, b in zip(v, row)]
        return v

    def add(self, vector):
        v = self.residual(vector)
        candidates = [(j, e) for j, e in enumerate(v) if not e.is_zero()]
        if not candidates:
            return False
        col, pivot = min(candidates, key=lambda je: linalg._pivot_score(je[1], je[0]))
        v = [ref_div(e, pivot) for e in v]
        for i, row in enumerate(self.rows):
            c = row[col]
            self.rows[i] = [ref_sub(a, ref_mul(c, b)) for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append((col, pivot.is_constant()))
        return True


_vectors = st.lists(sparse_ratfuncs(CH, max_exponent=1), min_size=4, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(_vectors, min_size=1, max_size=5), st.lists(_vectors, max_size=2))
def test_echelon_matches_unshortcut_reference(inserted, probes):
    fast, reference = Echelon(4), _ReferenceEchelon(4)
    for v in inserted:
        assert fast.add(v) == reference.add(v)
        assert fast.rows == reference.rows
        assert fast.pivots == reference.pivots
    for v in probes:
        assert fast.residual(v) == reference.residual(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(_vectors, min_size=1, max_size=3))
def test_kernel_basis_annihilates_sparse_rows(rows):
    basis = kernel_basis(rows)
    assert len(basis) == 4 - rank_generic(rows)
    for vec in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), CH.zero()).is_zero()
