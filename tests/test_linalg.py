"""Exact linear algebra: ranks, kernels, span coordinates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, kernel_basis, rank_generic, solve_in_span
from flagrank.errors import PoleAtPoint
from flagrank import linalg
from flagrank.linalg import CERTIFICATE_PRIME, Echelon, certified_rank, fraction_rank, \
    fraction_solve
from util import rand_ratfunc, ref_div, ref_mul, ref_sub, sc, sparse_ratfuncs, vf

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


def _exact_rank_or_pole(m, point):
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 2),
       st.lists(st.tuples(_grid, _grid, _grid), min_size=1, max_size=6))
def test_certified_rank_matches_fraction_rank(seed, independent, extra, points):
    rng = random.Random(seed)
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
        coeffs = [rand_ratfunc(CH, rng) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), CH.zero())
                     for j in range(3)])
    rng.shuffle(rows)
    generic = rank_generic(rows)
    assert generic <= independent
    for coords in points:
        p = CH.point(coords)
        assert _certified_or_pole(rows, p, generic) == _exact_rank_or_pole(rows, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_grid, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(_grid, min_size=n, max_size=n), max_size=3))))
def test_fraction_solve_reconstructs_every_target(system):
    columns, targets = system
    n = len(columns)
    if fraction_rank(columns) < n:
        with pytest.raises(ValueError):
            fraction_solve(columns, targets)
        return
    solved = fraction_solve(columns, targets)
    assert len(solved) == len(targets)
    for target, coords in zip(targets, solved):
        assert [sum(c * col[i] for c, col in zip(coords, columns))
                for i in range(n)] == target


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
@given(st.lists(_vectors, min_size=1, max_size=4), st.lists(_vectors, max_size=2))
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
