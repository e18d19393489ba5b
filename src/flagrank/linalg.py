"""Exact linear algebra over the rational-function field and over points.

A matrix is a list of equal-length rows.  Over the function field one
elimination serves every question: ``Echelon`` keeps a fully reduced row
space with a deterministic pivot score that prefers nonzero *constant*
entries, then low-complexity entries, then earlier columns; this choice keeps
computed frames polynomial (and valid at the origin) whenever possible.
Generic ranks, kernels and span coordinates are all read off it.

Ranks at points come from ``PointRank``, built once per matrix: an
elimination over the function field with nonzero constant pivots only,
which stays valid at every point where no input entry has a pole.  A point
then costs a check of the distinct bases of the input's denominators, plus a
rank certified modulo a prime (``certified_pair_rank``) of the residual
rows, if any are left.  A rank the prime cannot certify falls back to exact ``Fraction``
elimination.  Coordinates at a point come from one fraction-free integer
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ChartMismatch, PoleAtPoint


def _pivot_score(value, col):
    degree, nterms = value.complexity()
    return (0 if value.is_constant() else 1, degree, nterms, col)


class Echelon:
    """Incrementally reduced row space with deterministic scored pivoting.

    Rows are kept fully reduced (pivot entries normalized to one and
    eliminated from every other row), so residuals of new vectors are
    immediate and kernel extraction is a sign flip.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width, vectors=()):
        self.width = width
        self.rows = []
        self.pivots = []  # (column, pivot_was_constant)
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self.rows)

    def pivot_columns(self):
        return [c for c, _ in self.pivots]

    def all_pivots_constant(self):
        return all(flag for _, flag in self.pivots)

    def residual(self, vector):
        v = list(vector)
        if len(v) != self.width:
            raise ValueError("vector width mismatch")
        for row, (col, _) in zip(self.rows, self.pivots):
            c = v[col]
            if not c.is_zero():
                v = _eliminate(v, c, row)
        return v

    def contains(self, vector):
        return all(e.is_zero() for e in self.residual(vector))

    def copy(self):
        """An echelon of the same span that later ``add`` calls leave apart.

        ``add`` replaces rows and never changes one in place, so the copy
        shares the rows themselves.
        """
        other = Echelon(self.width)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    def add(self, vector):
        """Insert a vector; returns True when it enlarged the span."""
        v = list(vector)
        if len(self.rows) == self.width == len(v):
            return False  # the span is already the whole space
        v = self.residual(v)
        candidates = [(j, e) for j, e in enumerate(v) if not e.is_zero()]
        if not candidates:
            return False
        col, pivot = min(candidates, key=lambda je: _pivot_score(je[1], je[0]))
        was_constant = pivot.is_constant()
        # a pivot of one would rebuild every entry unchanged, and the pivot
        # over itself is one without a division
        if not pivot.is_one():
            # most rows hold the pivot alone, so the inverse is built on use
            one, inverse = pivot.chart.one(), None
            for j, e in enumerate(v):
                if e is pivot:
                    v[j] = one
                elif not e.is_zero():
                    if inverse is None:
                        inverse = pivot.reciprocal()
                    v[j] = e * inverse
        for i, row in enumerate(self.rows):
            c = row[col]
            if not c.is_zero():
                self.rows[i] = _eliminate(row, c, v)
        self.rows.append(v)
        self.pivots.append((col, was_constant))
        return True


def _eliminate(v, c, row):
    """``v - c * row``, entrywise; zero entries of ``row`` leave ``v`` as is."""
    return [a if b.is_zero() else a - c * b for a, b in zip(v, row)]


def rank_generic(rows):
    """Rank over the function field of a list of equal-length rows; 0 for none.

    The rank does not depend on row order, so the smallest rows go in first:
    once they span the whole width, the larger ones are never eliminated.
    """
    width = len(rows[0]) if rows else 0
    return Echelon(width, sorted(rows, key=_row_size)).rank


def _row_size(row):
    return sum(e.complexity()[1] for e in row)


def fraction_rank(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for i in range(rank + 1, n_rows):
            f = m[i][col] / piv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def fraction_solve(columns, targets):
    """Coordinates of every target in the basis ``columns``, exactly over ℚ.

    ``columns`` are n independent vectors of length n, ``targets`` vectors of
    the same length, and every entry is an integer pair (n, d), d != 0, for
    n/d, as ``RatFunc.integer_pair`` gives.  Each equation is scaled to
    integers by the lcm of its denominators, then one fraction-free
    Gauss–Jordan elimination of [columns | targets] serves every target
    (Bareiss 1968): a step replaces each other row r by
    (p * r - r[col] * pivot row) / p', where p is the pivot and p' the
    previous one, and the division is exact.  At the end every diagonal
    entry is the same p, the determinant up to sign, and a target's column
    holds p times its coordinates, so one ``Fraction`` is built per
    coordinate.  Raises ValueError when the columns are not a basis.
    """
    n = len(columns)
    m = []
    for i in range(n):
        row = [v[i] for v in columns] + [t[i] for t in targets]
        scale = lcm(*(d for _, d in row))
        m.append([a * (scale // d) if a else 0 for a, d in row])
    previous = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            raise ValueError("the columns are not a basis")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        row = m[col]
        pivot = row[col]
        for i in range(n):
            f = m[i][col]
            if i != col:
                m[i] = [(pivot * a - f * b) // previous for a, b in zip(m[i], row)]
        previous = pivot
    return [[Fraction(m[i][n + t], previous) for i in range(n)]
            for t in range(len(targets))]


CERTIFICATE_PRIME = (1 << 61) - 1


class PointRank:
    """Exact ranks at points of one matrix of ``RatFunc`` rows.

    Built once per matrix: Gaussian elimination over the function field with
    nonzero constant pivots only.  Each multiplier is then an entry over a
    constant, a polynomial expression in the input entries, so every row
    operation is defined and invertible at each point where no input entry
    has a pole.  With k such pivots, the rank at such a point is k plus the
    rank there of the residual rows: the other rows on the non-pivot
    columns, zero rows dropped.  A point therefore costs a check of the
    distinct bases of the input's denominators (an entry has a pole where
    one of its bases vanishes), and an evaluation of the residual rows only
    when there are any.
    """

    __slots__ = ("chart", "denominators", "pivots", "residual")

    def __init__(self, rows):
        self.chart = rows[0][0].chart if rows and rows[0] else None
        self.denominators = tuple({q: None for row in rows for e in row
                                   for q, _, _ in e.bases})
        rows = [list(row) for row in rows if not all(e.is_zero() for e in row)]
        pivots = 0
        while True:
            found = next(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row)
                          if e.num.terms and e.is_constant()), None)
            if found is None:
                break
            i, col = found
            pivot_row = rows.pop(i)
            inverse = pivot_row.pop(col).reciprocal()
            reduced = []
            for row in rows:
                c = row.pop(col)
                if not c.is_zero():
                    row = _eliminate(row, c * inverse, pivot_row)
                if not all(e.is_zero() for e in row):
                    reduced.append(row)
            rows = reduced
            pivots += 1
        self.pivots = pivots
        self.residual = rows

    def rank_at(self, point, bound):
        """Exact rank at ``point``; ``bound`` is an upper bound on it, such as
        the generic rank.  Raises PoleAtPoint where an input entry has a pole.
        """
        if self.chart is not None and point.chart != self.chart:
            raise ChartMismatch("point lives on a different chart")
        for base in self.denominators:
            if not point.homogenized(base)[0]:
                raise PoleAtPoint(f"denominator vanishes at {point.render()}")
        if not self.residual:
            return self.pivots
        pairs = [[e.integer_pair(point) for e in row] for row in self.residual]
        return self.pivots + certified_pair_rank(pairs, bound - self.pivots)


def certified_pair_rank(pairs, generic_rank):
    """Exact rank of rows evaluated to integer pairs (n, d), d != 0.

    ``generic_rank`` is an upper bound r on the rank, such as the generic
    rank of the rows the pairs were evaluated from.  Modulo the prime p,
    rank_p <= rank <= r, so rank_p == r certifies r.  When it does not
    (rank_p < r, or a nonzero entry's d is divisible by p), the answer is
    ``fraction_rank`` of the exact values: a failed certificate costs time,
    never exactness.
    """
    p = CERTIFICATE_PRIME
    basis = []  # (pivot column, row scaled to 1 at the pivot)
    for row in pairs:
        if len(basis) >= generic_rank:
            break
        v = _row_mod_p(row, p)
        if v is None:
            break
        for col, b in basis:
            c = v[col]
            if c:
                v = [(x - c * y) % p if y else x for x, y in zip(v, b)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        inv = pow(v[col], -1, p)
        basis.append((col, [x * inv % p if x else 0 for x in v]))
    if len(basis) >= generic_rank:
        return generic_rank
    return fraction_rank([[Fraction(n, d) for n, d in row] for row in pairs])


def _row_mod_p(row, p):
    """Entries n/d of a row mod p; None when a nonzero entry's d is 0 mod p."""
    v = []
    for n, d in row:
        if not n:
            v.append(0)
        elif d == 1:
            v.append(n % p)
        else:
            d %= p
            if not d:
                return None
            v.append(n * pow(d, -1, p) % p)
    return v


def kernel_basis(rows):
    """Basis of the right kernel over the function field.

    One vector per free column, in column order; pivot coordinates are read
    off the fully reduced rows.
    """
    if not rows or not rows[0]:
        return []
    width = len(rows[0])
    ech = Echelon(width, rows)
    pivot_cols = set(ech.pivot_columns())
    chart = rows[0][0].chart
    zero = chart.zero()
    one = chart.one()
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [zero] * width
        vec[free] = one
        for row, (col, _) in zip(ech.rows, ech.pivots):
            if not row[free].is_zero():
                vec[col] = -row[free]
        basis.append(vec)
    return basis


def solve_in_span(target, columns):
    """Coordinates of ``target`` in the span of ``columns``, or None.

    ``columns`` is a list of equal-length vectors over one chart.  A result c
    satisfies sum(c[i] * columns[i]) == target exactly; free coordinates are
    zero.  None means the target is not in the span.
    """
    if not columns:
        return None
    rows = [[col[i] for col in columns] + [target[i]]
            for i in range(len(columns[0]))]
    k = len(columns)
    for vec in kernel_basis(rows):
        if not vec[k].is_zero():
            scale = vec[k]
            return [-(vec[i] / scale) for i in range(k)]
    return None
