"""Shared helpers for the test suite."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import strategies as st

import flagrank
from flagrank import AdaptedFrame, Distribution, FlagBranch, PointQ, Polynomial, \
    RatFunc, VectorField, bracket_span, coordinate_field, lie_bracket, parse_scalar
from flagrank import linalg
from flagrank.algebra import _gcd_fold, poly_gcd
from flagrank.errors import PoleAtPoint
from flagrank.linalg import Echelon, fraction_rank, rank_generic


def sc(chart, text):
    return parse_scalar(chart, str(text))


def vf(chart, *coeffs):
    return VectorField(chart, [sc(chart, c) for c in coeffs])


def pointwise_rank(fields, point):
    return fraction_rank([f.evaluate(point) for f in fields])


def certified_rank(rows, point, generic_rank):
    """Exact rank at ``point`` of rows of RatFuncs, evaluating every entry.

    The slow twin of ``linalg.PointRank``: each entry becomes an exact
    integer pair (a pole anywhere raises PoleAtPoint) and
    ``linalg.certified_pair_rank`` certifies the rank against
    ``generic_rank``, an upper bound on it.
    """
    return linalg.certified_pair_rank(
        [[f.integer_pair(point) for f in row] for row in rows], generic_rank)


def rank_or_pole(rank, *args):
    """``rank(*args)``, or the message of the PoleAtPoint it raises."""
    try:
        return rank(*args)
    except PoleAtPoint as exc:
        return str(exc)


def spans_equal(fields_a, fields_b):
    """True iff the lists span the same space; only ``fields_b`` is eliminated.

    A field of ``fields_a`` outside it returns False at once.  The others'
    coordinates in its reduced rows are their pivot-column entries, and the
    spans are equal iff those rows have the rank of ``fields_b``.
    """
    width = (fields_a or fields_b)[0].chart.dimension
    ech_b = Echelon(width, [f.coefficients for f in fields_b])
    pivots = ech_b.pivot_columns()
    coords = []
    for f in fields_a:
        if any(not e.is_zero() for e in ech_b.residual(f.coefficients)):
            return False
        coords.append([f.coefficients[c] for c in pivots])
    return rank_generic(coords) == ech_b.rank


def ref_flag_relations(flag):
    """``(name, holds)`` of each flag relation, one ``bracket_span`` each.

    The slow twin of ``verify_flag_relations``: every relation brackets its
    own pair of stratum frames and compares the generators' span with the
    expected stratum's frame (or the coordinate frame for TM).
    """
    d1, d2, d3, d4, d5 = flag.strata
    chart = d1.chart
    tangent = [coordinate_field(chart, v) for v in chart.variables]
    if flag.branch is FlagBranch.NONDEGENERATE:
        relations = [("[D1,D2]=D2", d1, d2, d2), ("[D1,D3]=D4", d1, d3, d4),
                     ("[D1,D4]=D4", d1, d4, d4), ("[D1,D5]=D5", d1, d5, d5),
                     ("[D2,D3]=D5", d2, d3, d5), ("[D2,D4]=D5", d2, d4, d5),
                     ("[D2,D5]=TM", d2, d5, None)]
    else:
        relations = [("[D1,D2]=D2", d1, d2, d2), ("[D1,D3]=D4", d1, d3, d4),
                     ("[D1,D4]=D4", d1, d4, d4), ("[D4,D4]=D5", d4, d4, d5),
                     ("[D2,D4]=D5", d2, d4, d5), ("[D2,D5]=D5", d2, d5, d5),
                     ("[D5,D5]=TM", d5, d5, None)]
    return [(name, spans_equal(bracket_span(a.frame, b.frame),
                               tangent if c is None else list(c.frame)))
            for name, a, b, c in relations]


def ref_depth4_closed(flag):
    """True iff every generator of D4 + [D4, D4] lies in D5, from D4's own
    frame: the slow twin of the depth-4 check in ``Analysis.branch``."""
    ech5 = flag[5].echelon()
    return all(ech5.contains(g.coefficients)
               for g in bracket_span(flag[4].frame, flag[4].frame))


def certified_prefix_ranks(pairs, prefixes):
    """``certified_pair_rank`` of each prefix ``pairs[:size]``, in one pass.

    ``prefixes`` lists (size, generic rank) pairs.  One elimination mod p
    reads the rows in order, so its rank after k rows is the rank mod p of
    the first k; it notes how many rows it had read when its rank first
    reached each value.  A prefix is certified when its rank r was reached
    within its own rows.  It falls back to ``linalg.fraction_rank`` of that
    prefix alone when it was not: its rank mod p stays below r, or the pass
    met a row with a denominator divisible by p first (the pass stops there).
    """
    p = linalg.CERTIFICATE_PRIME
    target = max((rank for _, rank in prefixes), default=0)
    limit = max((size for size, _ in prefixes), default=0)
    reached = [0]  # reached[k]: rows read when the rank mod p reached k
    basis = []  # (pivot column, row scaled to 1 at the pivot)
    for read, row in enumerate(pairs[:limit], 1):
        if len(basis) >= target:
            break
        v = linalg._row_mod_p(row, p)
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
        reached.append(read)
    return tuple(
        rank if rank < len(reached) and reached[rank] <= size
        else linalg.fraction_rank([[Fraction(n, d) for n, d in row]
                                   for row in pairs[:size]])
        for size, rank in prefixes)


def evaluated_growth_at(steps, point):
    """Pointwise ranks of derived-flag steps by evaluating every generator.

    The slow twin of ``growth_at``: the last step's generators are evaluated
    once, each step's generators are a prefix of them, and one modular pass
    certifies every step's rank.
    """
    pairs = [[c.integer_pair(point) for c in g.coefficients]
             for g in steps[-1].generators]
    return certified_prefix_ranks(
        pairs, [(len(step.generators), step.generic_rank) for step in steps])


def brute_bracket_layers(dist, depth=4):
    """Iterated bracket generators by plain enumeration (oracle path)."""
    layers = [list(dist.frame)]
    for _ in range(depth - 1):
        prev = layers[-1]
        new = list(prev)
        for x in dist.frame:
            for g in prev:
                b = lie_bracket(x, g)
                if not b.is_zero():
                    new.append(b)
        layers.append(new)
    return layers


def brute_growth_at(dist, point, depth=4):
    """Pointwise growth vector from the brute-force bracket closure."""
    ranks = []
    for layer in brute_bracket_layers(dist, depth):
        r = pointwise_rank(layer, point)
        if ranks and r == ranks[-1]:
            break
        ranks.append(r)
    return tuple(ranks)


def digits_value(digits):
    """The integer a string of decimal digits spells, by Horner's rule.

    It never calls ``int`` or ``str`` on more than one digit, so it checks
    conversions past CPython's 4300-digit limit independently.
    """
    value = 0
    for d in digits:
        value = value * 10 + "0123456789".index(d)
    return value


def det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * det(minor)
    return total


def gauss_jordan_solve(columns, targets):
    """The slow twin of ``linalg.fraction_solve`` over rational entries.

    One Gauss–Jordan elimination of [columns | targets] over ``Fraction``,
    every pivot row scaled to one; ValueError when the columns are not a
    basis.
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


def fraction_sample_points(chart, seed):
    """The slow twin of ``classification.sample_points``: coordinates
    ``Fraction(randint(-4, 4), randint(1, 3))``, built as ``Fraction``s."""
    rng = random.Random(seed)
    while True:
        yield PointQ(chart, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(chart.dimension)])


# Y's @z coefficient (x1^2 + y*x2^2)/2 gives the form [[-1, 0], [0, -y]] up to
# scale: elliptic where y > 0, hyperbolic where y < 0, so the generic class
# depends on the sample points
SINGULAR_SRC = """
chart FR(x1, x2, y, y1, y2, z)
field X1 = @x1
field X2 = @x2
field Y = @y + x1*@y1 + x2*@y2 + ((x1^2 + y*x2^2)/2)*@z
dist D = span(X1, X2, Y)
"""


FAMILY_VARIABLES = {"eq3": ("x", "u1", "u2", "z"),
                    "eq4": ("x", "u1", "u2", "z", "w")}


def family_parameter(rng, family, denominator):
    """A parameter with monomials of degree 1, 2 and 3, over 1 + v^2 or not."""
    variables = FAMILY_VARIABLES[family]
    terms = [f"{rng.randint(1, 9) * rng.choice((-1, 1))}*"
             + "*".join(rng.choice(variables) for _ in range(degree))
             for degree in (1, 2, 3)]
    text = " + ".join(terms)
    return text if denominator is None else f"({text})/(1 + {denominator}^2)"


def rand_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def combine(fields, coeffs):
    combo = None
    for c, f in zip(coeffs, fields):
        part = f.scale(c)
        combo = part if combo is None else combo + part
    return combo


def change_frame(dist, matrix):
    """Distribution respanned by a constant matrix acting on the frame."""
    fields = [combine(list(dist.frame), row) for row in matrix]
    return Distribution(dist.chart, fields)


def rescaled_frame(dist, rng):
    """The distribution on its frame changed by function factors.

    One field is scaled by a nonconstant polynomial, one gains a polynomial
    multiple of a third, and that third is scaled by (x_a - c)/(x_b - d),
    which vanishes or has a pole on lattice hyperplanes.  The span is
    unchanged off those loci, so generic growth and class are too.
    """
    chart = dist.chart
    fields = list(dist.frame)
    i, j, k = rng.sample(range(len(fields)), 3)
    scale = rand_polynomial(chart, rng)
    while scale.is_constant():
        scale = rand_polynomial(chart, rng)
    a, b = rng.sample(chart.variables, 2)
    factor = (chart.var(a) - rng.randint(-2, 2)) / (chart.var(b) - rng.randint(-2, 2))
    fields[i] = fields[i].scale(scale)
    fields[j] = fields[j] + fields[k].scale(rand_polynomial(chart, rng))
    fields[k] = fields[k].scale(factor)
    return Distribution(chart, fields)


def transformed_frame(frame, y_scale=1, z_scale=1, basis=None):
    """Adapted frame after rescaling Y and Z or changing (X1, X2).

    ``basis`` is a 2x2 rational matrix of constants applied to (X1, X2); the
    derived fields Y1, Y2 are recomputed so the result is again adapted.  The
    frame-change oracle: the point class must not depend on these choices.
    """
    x1, x2 = frame.x1, frame.x2
    if basis is not None:
        (m11, m12), (m21, m22) = basis
        n1 = x1.scale(m11) + x2.scale(m12)
        n2 = x1.scale(m21) + x2.scale(m22)
        x1, x2 = n1, n2
    y = frame.y.scale(y_scale)
    z = frame.z.scale(z_scale)
    return AdaptedFrame(x1, x2, y, lie_bracket(y, x1), lie_bracket(y, x2), z)


def rand_polynomial(chart, rng, max_terms=3, max_degree=2):
    total = chart.const(rng.randint(-2, 2))
    for _ in range(rng.randint(1, max_terms)):
        term = chart.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_degree)):
            term = term * chart.var(rng.choice(chart.variables))
        total = total + term
    return total


def rand_ratfunc(chart, rng):
    num = rand_polynomial(chart, rng)
    den = rand_polynomial(chart, rng, max_terms=2, max_degree=1)
    while den.is_zero():
        den = rand_polynomial(chart, rng, max_terms=2, max_degree=1)
    return num / den


# --- reference arithmetic: every result goes through the full RatFunc(num, den)
# constructor (gcd, sign and zero normalization), with no zero shortcut ---

def ref_add(f, g):
    return RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)


def ref_neg(f):
    return RatFunc(-f.num, f.den)


def ref_sub(f, g):
    return ref_add(f, ref_neg(g))


def ref_mul(f, g):
    return RatFunc(f.num * g.num, f.den * g.den)


def ref_div(f, g):
    return RatFunc(f.num * g.den, f.den * g.num)


def ref_derivative(f, var):
    return RatFunc(f.num.derivative(var) * f.den - f.num * f.den.derivative(var),
                   f.den * f.den)


def ref_lie_bracket(x, y):
    """[X,Y]^i = sum_j X^j d_j Y^i - Y^j d_j X^i, every term computed."""
    chart = x.chart
    coeffs = []
    for cx, cy in zip(x.coefficients, y.coefficients):
        total = RatFunc(Polynomial.zero(chart), Polynomial.one(chart))
        for xj, yj, var in zip(x.coefficients, y.coefficients, chart.variables):
            total = ref_add(total, ref_sub(ref_mul(xj, ref_derivative(cy, var)),
                                           ref_mul(yj, ref_derivative(cx, var))))
        coeffs.append(total)
    return VectorField(chart, coeffs)


def sparse_ratfuncs(chart, max_exponent=2):
    """RatFuncs that are zero or constant about two times in three.

    Zero and constant operands are what the arithmetic fast paths skip, so
    differential tests draw them often.
    """
    exps = st.tuples(*[st.integers(0, max_exponent)] * chart.dimension)

    def polys(max_terms):
        return st.dictionaries(exps, st.integers(-4, 4), max_size=max_terms).map(
            lambda terms: Polynomial(chart, terms))

    general = st.tuples(polys(3), polys(3).filter(lambda p: not p.is_zero())).map(
        lambda pair: RatFunc(*pair))
    constants = st.fractions(min_value=-2, max_value=2, max_denominator=2).map(
        lambda q: RatFunc.constant(chart, q))
    return st.one_of(st.just(chart.zero()), constants, general)


# --- the primitive-remainder-sequence gcd: the slow exact twin of poly_gcd,
# recursive into itself for contents ---

def prs_gcd(f, g):
    """GCD over the integers with a positive leading coefficient, by PRS."""
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.chart, gcd(f.content(), g.content()))
    return _prs_entry(f, g)


def _prs_entry(f, g):
    occupied = [i for i in range(f.chart.dimension)
                if f._deg_in(i) > 0 or g._deg_in(i) > 0]
    v = occupied[-1]
    fc, fp = _univ_content_primitive(f, v)
    gc, gp = _univ_content_primitive(g, v)
    cont = prs_gcd(fc, gc)
    return (cont * _primitive_prs(fp, gp, v)).sign_normalized()


def _univ_content_primitive(f, v):
    coeffs = f._univ_coeffs(v)
    content = Polynomial.zero(f.chart)
    for k in sorted(coeffs):
        content = prs_gcd(content, coeffs[k])
        if content.is_one():
            break
    return content, f.divexact(content)


def _v_power(chart, v, k):
    return Polynomial(chart, {tuple(k if i == v else 0 for i in range(chart.dimension)): 1})


def _pseudo_rem(a, b, v):
    db = b._deg_in(v)
    lcb = b._univ_coeffs(v)[db]
    r = a
    while not r.is_zero() and r._deg_in(v) >= db:
        dr = r._deg_in(v)
        lcr = r._univ_coeffs(v)[dr]
        r = lcb * r - lcr * _v_power(r.chart, v, dr - db) * b
    return r


def _primitive_prs(a, b, v):
    """GCD of polynomials primitive in ``v`` via the primitive remainder sequence."""
    if a._deg_in(v) < b._deg_in(v):
        a, b = b, a
    while True:
        if b._deg_in(v) == 0:
            return Polynomial.one(a.chart)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return b.sign_normalized()
        r = _univ_content_primitive(r, v)[1]
        a, b = b, r



# --- expanded-denominator arithmetic: the slow twin of RatFunc's factored
# denominator.  A value is num/den with both expanded, reduced by poly_gcd
# against the whole denominator, as RatFunc computed it before its
# denominator was kept factored ---

class ExpandedRatFunc:
    """Reduced num/den over one expanded denominator with a positive
    leading coefficient; zero is 0/1."""

    def __init__(self, num, den):
        if num.is_zero():
            num, den = num, Polynomial.one(num.chart)
        else:
            g = poly_gcd(num, den)
            num, den = num.divexact(g), den.divexact(g)
            if den.leading()[1] < 0:
                num, den = -num, -den
        self.num, self.den = num, den

    def __add__(self, other):
        return ExpandedRatFunc(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    def __mul__(self, other):
        # cross-reduction of reduced fractions keeps the product reduced
        g1, g2 = poly_gcd(self.num, other.den), poly_gcd(other.num, self.den)
        return ExpandedRatFunc(self.num.divexact(g1) * other.num.divexact(g2),
                               self.den.divexact(g2) * other.den.divexact(g1))

    def reciprocal(self):
        return ExpandedRatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def partial(self, var):
        """The quotient rule with no gcd against den^2: den = a*b with a
        den's content free of var, g = gcd(b, b_v), and only a can share a
        factor with the top (n_v*bt - n*bp)."""
        num, den = self.num, self.den
        i = den.chart.index(var)
        dn = num.derivative(var)
        if not den._deg_in(i):
            return ExpandedRatFunc(dn, den)
        a = _gcd_fold(den._univ_coeffs(i).values())
        b = den.divexact(a)
        db = b.derivative(var)
        g = poly_gcd(b, db)
        bt, bp = b.divexact(g), db.divexact(g)
        top = dn * bt - num * bp
        e = poly_gcd(top, a)
        reduced = ExpandedRatFunc(Polynomial.zero(den.chart), Polynomial.one(den.chart))
        reduced.num, reduced.den = top.divexact(e), a.divexact(e) * g * bt * bt
        return reduced

    def integer_pair(self, point):
        if self.num.is_zero():
            return 0, 1
        n, dn = point.homogenized(self.num)
        d, dd = point.homogenized(self.den)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {point.render()}")
        if dn > dd:
            d *= point.scale_power(dn - dd)
        elif dd > dn:
            n *= point.scale_power(dd - dn)
        return n, d

    def render(self):
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


# --- tuple-keyed polynomial reference: terms as {exponent tuple: coefficient},
# graded-lex as the (total degree, exponents) tuple order ---

def grlex(exps):
    return (sum(exps), exps)


def unpacked(poly):
    """A Polynomial's terms keyed by exponent tuples."""
    return {poly.chart.unpack(k): c for k, c in poly.terms.items()}


def _drop_zeros(terms):
    return {e: c for e, c in terms.items() if c}


def tuple_leading(terms):
    e = max(terms, key=grlex)
    return e, terms[e]


def tuple_total_degree(terms):
    return max((sum(e) for e in terms), default=0)


def tuple_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _drop_zeros(out)


def tuple_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _drop_zeros(out)


def tuple_derivative(terms, i):
    return _drop_zeros({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                        for e, c in terms.items() if e[i]})


def tuple_univ_coeffs(terms, i):
    out = {}
    for e, c in terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def tuple_divexact(a, b):
    """Exact quotient a / b; ValueError when it is not a polynomial."""
    out, rem = {}, dict(a)
    le, lc = tuple_leading(b)
    while rem:
        re = max(rem, key=grlex)
        diff = tuple(x - y for x, y in zip(re, le))
        q, r = divmod(rem[re], lc)
        if r or any(d < 0 for d in diff):
            raise ValueError("inexact polynomial division")
        out[diff] = q
        rem = tuple_add(rem, {e: -c for e, c in tuple_mul({diff: q}, b).items()})
    return out


def tuple_render(variables, terms):
    """Graded-lex descending text, as ``Polynomial.render`` prints it."""
    if not terms:
        return "0"
    text = ""
    for e in sorted(terms, key=grlex, reverse=True):
        c = terms[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(variables, e) if k)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += f" {'-' if c < 0 else '+'} {body}"
    return text


# 2 GB of address space for a child that may try a runaway allocation
MEMORY_LIMIT = 2 << 30


def run_with_memory_limit(code):
    """Run Python ``code`` in a child whose address space is capped at
    ``MEMORY_LIMIT``, with this suite's flagrank importable.

    An input that would allocate without bound fails there with MemoryError,
    instead of using up the memory of the machine that runs the suite.
    """
    src = str(Path(flagrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    prologue = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))\n")
    return subprocess.run([sys.executable, "-c", prologue + code],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
