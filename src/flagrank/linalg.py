"""Exact linear algebra over the rational-function field and over points.

A matrix is a list of equal-length rows.  Over the function field one
elimination serves every question: ``Echelon`` keeps a fully reduced row
space with a deterministic pivot score that prefers nonzero *constant*
entries, then low-complexity entries, then earlier columns; this choice keeps
computed frames polynomial (and valid at the origin) whenever possible.
Generic ranks, kernels and span coordinates are all read off it.  Ranks at a
point are certified modulo a prime, with exact ``Fraction`` elimination as
the fallback; coordinates at a point come from one ``Fraction`` elimination.
"""

from __future__ import annotations

from fractions import Fraction


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
        # a pivot of one would rebuild every entry unchanged
        if not pivot.is_one():
            v = [e if e.is_zero() else e / pivot for e in v]
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
    the same length; one Gauss–Jordan elimination of [columns | targets]
    serves them all.  Raises ValueError when the columns are not a basis.
    """
    n = len(columns)
    m = [[Fraction(v[i]) for v in columns] + [Fraction(t[i]) for t in targets]
         for i in range(n)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            raise ValueError("the columns are not a basis")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        row = m[col]
        piv = row[col]
        if piv != 1:
            row = m[col] = [a / piv if a else a for a in row]
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                m[i] = [a - f * b if b else a for a, b in zip(m[i], row)]
    return [[m[i][n + t] for i in range(n)] for t in range(len(targets))]


CERTIFICATE_PRIME = (1 << 61) - 1


def certified_rank(rows, point, generic_rank):
    """Exact rank at ``point`` of rows of RatFuncs of generic rank r.

    Every entry is evaluated to an exact integer pair (n, d), so a pole
    anywhere raises PoleAtPoint.  Modulo the prime p,
    rank_p <= rank at the point <= r, so rank_p == r certifies r.  When it
    does not (rank_p < r, or a denominator divisible by p), the answer is
    ``fraction_rank`` of the exact values: a failed certificate costs time,
    never exactness.  Any upper bound on the rank at the point may stand in
    for r = ``generic_rank``.
    """
    return certified_pair_rank([[f.integer_pair(point) for f in row] for row in rows],
                               generic_rank)


def certified_pair_rank(pairs, generic_rank):
    """``certified_rank`` of rows already evaluated to integer pairs (n, d)."""
    if _rank_mod_p(pairs, generic_rank) == generic_rank:
        return generic_rank
    return fraction_rank([[Fraction(n, d) for n, d in row] for row in pairs])


def _rank_mod_p(pairs, target):
    """Rank mod p of rows of integer pairs n/d; stops once it reaches ``target``.

    None when a row it reads has a denominator divisible by p.
    """
    p = CERTIFICATE_PRIME
    basis = []  # (pivot column, row scaled to 1 at the pivot)
    for row in pairs:
        v = []
        for n, d in row:
            d %= p
            if not d:
                return None
            v.append(n * pow(d, -1, p) % p)
        for col, b in basis:
            c = v[col]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, b)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        inv = pow(v[col], -1, p)
        basis.append((col, [x * inv % p for x in v]))
        if len(basis) == target:
            break
    return len(basis)


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
