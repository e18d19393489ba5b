"""Exact linear algebra: ranks, kernels, span coordinates."""

import random

import pytest

from flagrank import Chart, MatrixRF, kernel_basis, rank_generic, solve_in_span
from flagrank.errors import PoleAtPoint
from flagrank.linalg import fraction_rank
from util import rand_ratfunc, sc, vf

CH = Chart("A", ("x", "y", "z"))
J21 = Chart("J21", ("t", "u", "v", "u1", "u2", "v1"))


def _matrix(chart, rows):
    return MatrixRF.from_rows(chart, [[sc(chart, e) for e in row] for row in rows])


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
    m = MatrixRF.from_rows(J21, [f.coefficients for f in fields])
    assert rank_generic(m) == 5
    # oracle: exact ranks at sample points can only certify from below
    for coords in ((0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6)):
        assert fraction_rank(m.evaluate(J21.point(coords))) == 5


def test_rank_at_pole():
    m = _matrix(CH, [["1/x"]])
    with pytest.raises(PoleAtPoint):
        fraction_rank(m.evaluate(CH.point((0, 0, 0))))


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
        m = MatrixRF.from_rows(CH, rows)
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank_generic(m)
        for vec in basis:
            for row in rows:
                assert sum((r * v for r, v in zip(row, vec)), CH.zero()).is_zero()


def test_rank_at_never_exceeds_generic():
    rng = random.Random(13)
    for trial in range(6):
        rows = [[rand_ratfunc(CH, rng) for _ in range(3)] for _ in range(3)]
        m = MatrixRF.from_rows(CH, rows)
        generic = rank_generic(m)
        achieved = 0
        for _ in range(25):
            p = CH.point((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)))
            try:
                r = fraction_rank(m.evaluate(p))
            except PoleAtPoint:
                continue
            assert r <= generic
            achieved = max(achieved, r)
        # the exceptional set is thin: some sampled point realizes the rank
        assert achieved == generic
