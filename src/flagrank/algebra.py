"""Exact arithmetic over multivariate rational functions.

A :class:`Chart` fixes an ordered tuple of coordinate names; the order defines
the graded-lexicographic monomial order used everywhere (canonical printing,
leading terms, pivot scoring).  :class:`Polynomial` is a sparse
integer-coefficient polynomial; :class:`RatFunc` is a reduced fraction of two
polynomials and is the coefficient field for the whole package.  All values
are immutable and canonical: two construction orders of the same function
yield identical stored data, so equality and zero tests are exact.

Most arithmetic in a bracket computation is on zeros, so zero and one are
free: each chart holds one shared zero and one shared one, built on first
use, and ``RatFunc`` operations return a zero operand (or the other operand)
without building anything.  Values are shared, so no code may mutate
``Polynomial.terms`` in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

from .errors import ChartMismatch, DivisionByZero, PoleAtPoint, UnknownVariable


def _grlex(exps):
    return (sum(exps), exps)


class Chart:
    """Named, ordered coordinate system."""

    __slots__ = ("name", "variables", "_index", "_zero", "_one")

    def __init__(self, name, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("chart needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in chart {name!r}")
        self.name = name
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        self._zero = self._one = None

    @property
    def dimension(self):
        return len(self.variables)

    def index(self, var):
        try:
            return self._index[var]
        except KeyError:
            raise UnknownVariable(f"{var!r} is not a variable of chart {self.name!r}") from None

    def var(self, name):
        """The coordinate function ``name`` as a RatFunc."""
        return RatFunc._new(Polynomial.variable(self, name), Polynomial.one(self))

    def const(self, value):
        return RatFunc.constant(self, value)

    def zero(self):
        """The chart's shared zero function 0/1."""
        if self._zero is None:
            self._zero = RatFunc._new(Polynomial(self, {}), Polynomial.one(self))
        return self._zero

    def one(self):
        """The chart's shared constant function 1/1."""
        if self._one is None:
            one = Polynomial(self, {(0,) * len(self.variables): 1})
            self._one = RatFunc._new(one, one)
        return self._one

    def point(self, coords):
        return PointQ(self, coords)

    def origin(self):
        return PointQ(self, (0,) * self.dimension)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Chart):
            return NotImplemented
        return self.name == other.name and self.variables == other.variables

    def __hash__(self):
        return hash((self.name, self.variables))

    def __repr__(self):
        return f"Chart({self.name!r}, {self.variables!r})"


def _require_same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatch(f"charts differ: {a.chart.name!r} vs {b.chart.name!r}")


class Polynomial:
    """Sparse integer-coefficient polynomial on a chart.

    ``terms`` maps exponent tuples to nonzero int coefficients.  Instances are
    never mutated in place: the chart's zero and one are shared.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @staticmethod
    def zero(chart):
        return chart.zero().num

    @staticmethod
    def one(chart):
        return chart.one().num

    @classmethod
    def constant(cls, chart, value):
        value = int(value)
        if value == 0:
            return chart.zero().num
        if value == 1:
            return chart.one().num
        return cls(chart, {(0,) * chart.dimension: value})

    @classmethod
    def variable(cls, chart, name):
        e = [0] * chart.dimension
        e[chart.index(name)] = 1
        return cls(chart, {tuple(e): 1})

    @classmethod
    def monomial(cls, chart, exps, coeff=1):
        if coeff == 0:
            return cls(chart, {})
        return cls(chart, {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self):
        terms = self.terms
        return len(terms) == 1 and terms.get((0,) * self.chart.dimension) == 1

    def constant_value(self):
        if self.is_zero():
            return 0
        [(e, c)] = self.terms.items()
        if sum(e) != 0:
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def content(self):
        g = 0
        for c in self.terms.values():
            g = _igcd(g, abs(c))
        return g

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.chart.variables[i])
        return used

    def __neg__(self):
        return Polynomial(self.chart, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        _require_same_chart(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.chart, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.chart, {e: c * other for e, c in self.terms.items()})
        _require_same_chart(self, other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.chart, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.chart)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    def derivative(self, var):
        i = self.chart.index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            s = out.get(e2, 0) + c * k
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return Polynomial(self.chart, out)

    def eval_var(self, i, value):
        """Substitute an integer for variable ``i``; stays a polynomial."""
        out = {}
        for e, c in self.terms.items():
            e2 = e[:i] + (0,) + e[i + 1:]
            s = out.get(e2, 0) + c * value ** e[i]
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return Polynomial(self.chart, out)

    def max_norm(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    def substitute(self, target, mapping):
        """Map into RatFuncs over ``target``; unmapped variables go to their namesakes."""
        images = []
        for v in self.chart.variables:
            if v in mapping:
                images.append(mapping[v])
            else:
                images.append(target.var(v))
        total = RatFunc.constant(target, 0)
        for e, c in self.terms.items():
            term = RatFunc.constant(target, c)
            for img, k in zip(images, e):
                if k:
                    term = term * img ** k
            total = total + term
        return total

    def divexact(self, other):
        """Exact division; raises ValueError when the quotient is not polynomial."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if other.is_one():
            return self
        out = {}
        rem = dict(self.terms)
        le, lc = other.leading()
        while rem:
            re = max(rem, key=_grlex)
            rc = rem[re]
            diff = tuple(a - b for a, b in zip(re, le))
            if any(d < 0 for d in diff):
                raise ValueError("inexact polynomial division")
            q, r = divmod(rc, lc)
            if r:
                raise ValueError("inexact polynomial division")
            out[diff] = q
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(diff, e2))
                s = rem.get(e, 0) - q * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Polynomial(self.chart, out)

    def sign_normalized(self):
        """Sign flipped if the graded-lex leading coefficient is negative."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        return -self if lc < 0 else self

    # --- univariate view helpers (used by gcd) ---

    def _deg_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def _univ_coeffs(self, i):
        """Coefficients by degree in variable ``i``, as polynomials without it."""
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            base = e[:i] + (0,) + e[i + 1:]
            d = out.setdefault(k, {})
            d[base] = d.get(base, 0) + c
        return {k: Polynomial(self.chart, d) for k, d in out.items()}

    def render(self):
        """Canonical text: graded-lex descending, explicit ``^`` and ``*``."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.chart.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial({self.render()})"


def poly_gcd(f, g):
    """GCD over the integers, positive graded-lex leading coefficient.

    Fast path: strip the common monomial and integer content, then run the
    integer-evaluation heuristic (candidates are certified by exact trial
    division).  The certified primitive-remainder-sequence algorithm is kept
    as the fallback for the rare heuristic failure.
    """
    _require_same_chart(f, g)
    if f is g or f == g:
        return f.sign_normalized()
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.chart, _igcd(f.content(), g.content()))
    chart = f.chart
    mono = tuple(min(a, b) for a, b in zip(_min_exponents(f), _min_exponents(g)))
    if any(mono):
        f = f.divexact(Polynomial.monomial(chart, mono))
        g = g.divexact(Polynomial.monomial(chart, mono))
    content = _igcd(f.content(), g.content())
    if content > 1:
        f = Polynomial(chart, {e: c // content for e, c in f.terms.items()})
        g = Polynomial(chart, {e: c // content for e, c in g.terms.items()})
    result = _heuristic_gcd(f, g)
    if result is None:
        result = _prs_entry(f, g)
    if any(mono):
        result = result * Polynomial.monomial(chart, mono)
    if content > 1:
        result = result * content
    return result.sign_normalized()


def _min_exponents(f):
    mins = None
    for e in f.terms:
        if mins is None:
            mins = list(e)
        else:
            mins = [min(a, b) for a, b in zip(mins, e)]
    return tuple(mins)


def _balanced_digit(value, xi):
    r = value % xi
    if 2 * r > xi:
        r -= xi
    return r


def _strip_content(f):
    c = f.content()
    if c > 1:
        return c, Polynomial(f.chart, {e: v // c for e, v in f.terms.items()})
    return 1, f


def _heuristic_gcd(f, g, depth=0):
    """Integer-evaluation gcd; returns None when the heuristic gives up.

    Both operands are made integer-primitive before the evaluation loop and
    the content gcd is restored afterwards; the gcd of primitive polynomials
    is primitive, so stripping the lifted candidate's content is sound.
    """
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.chart, _igcd(f.content(), g.content()))
    chart = f.chart
    cf, f = _strip_content(f)
    cg, g = _strip_content(g)
    content = Polynomial.constant(chart, _igcd(cf, cg))
    var = next(i for i in range(chart.dimension)
               if f._deg_in(i) > 0 or g._deg_in(i) > 0)
    xi = 2 * min(f.max_norm(), g.max_norm()) + 29
    for _ in range(6):
        if xi.bit_length() * max(f._deg_in(var), g._deg_in(var)) > 12000:
            return None
        fe = f.eval_var(var, xi)
        ge = g.eval_var(var, xi)
        if not (fe.is_zero() or ge.is_zero()):
            h = _heuristic_gcd(fe, ge, depth + 1)
            if h is not None:
                candidate = _strip_content(_xi_adic_lift(h, var, xi))[1]
                candidate = candidate.sign_normalized()
                if not candidate.is_zero() and _divides(candidate, f) \
                        and _divides(candidate, g):
                    return candidate * content
        xi = xi * 73794 // 27011 + 5
    return None


def _xi_adic_lift(value, var, xi):
    """Rebuild a polynomial in ``var`` from its balanced xi-adic expansion."""
    chart = value.chart
    total = Polynomial.zero(chart)
    power = 0
    while not value.is_zero():
        digit_terms = {}
        rest_terms = {}
        for e, c in value.terms.items():
            d = _balanced_digit(c, xi)
            if d:
                digit_terms[e] = d
            r = (c - d) // xi
            if r:
                rest_terms[e] = r
        if digit_terms:
            shifted = {e[:var] + (e[var] + power,) + e[var + 1:]: c
                       for e, c in digit_terms.items()}
            total = total + Polynomial(chart, shifted)
        value = Polynomial(chart, rest_terms)
        power += 1
    return total


def _divides(candidate, poly):
    try:
        poly.divexact(candidate)
    except ValueError:
        return False
    return True


def _prs_entry(f, g):
    occupied = [i for i in range(f.chart.dimension)
                if f._deg_in(i) > 0 or g._deg_in(i) > 0]
    v = occupied[-1]
    fc, fp = _univ_content_primitive(f, v)
    gc, gp = _univ_content_primitive(g, v)
    cont = poly_gcd(fc, gc)
    return (cont * _primitive_prs(fp, gp, v)).sign_normalized()


def _univ_content_primitive(f, v):
    coeffs = f._univ_coeffs(v)
    content = Polynomial.zero(f.chart)
    for k in sorted(coeffs):
        content = poly_gcd(content, coeffs[k])
        if content.is_one():
            break
    return content, f.divexact(content)


def _v_power(chart, v, k):
    e = [0] * chart.dimension
    e[v] = k
    return Polynomial.monomial(chart, e)


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


class RatFunc:
    """Reduced fraction of integer polynomials; the package's coefficient field.

    Canonical form: gcd(num, den) = 1, den has positive leading coefficient,
    zero is 0/1.  Construction enforces this, so ``==`` is semantic equality.
    A zero result shares the polynomials of its chart's zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        _require_same_chart(num, den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            zero = num.chart.zero()
            num, den = zero.num, zero.den
        elif den.is_constant():
            d = den.constant_value()
            g = _igcd(num.content(), abs(d))
            if d < 0:
                g = -g
            if g != 1:
                num = Polynomial(num.chart, {e: c // g for e, c in num.terms.items()})
                den = Polynomial.constant(num.chart, d // g)
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = num.divexact(g)
                den = den.divexact(g)
            if den.leading()[1] < 0:
                num = -num
                den = -den
        self.num = num
        self.den = den

    @classmethod
    def _new(cls, num, den):
        """Bare constructor for a pair already in canonical form."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def _reduced(cls, num, den):
        """Trusted constructor for already-coprime pairs; no gcd is run."""
        if not num.terms:
            return num.chart.zero()
        if den.leading()[1] < 0:
            return cls._new(-num, -den)
        return cls._new(num, den)

    @classmethod
    def constant(cls, chart, value):
        if isinstance(value, RatFunc):
            return value
        if value == 0:
            return chart.zero()
        if value == 1:
            return chart.one()
        q = Fraction(value)
        return cls(Polynomial.constant(chart, q.numerator),
                   Polynomial.constant(chart, q.denominator))

    @property
    def chart(self):
        return self.num.chart

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return Fraction(self.num.constant_value(), self.den.constant_value())

    def complexity(self):
        """Cheap size measure used for pivot scoring."""
        return (self.num.total_degree() + self.den.total_degree(),
                len(self.num.terms) + len(self.den.terms))

    def variables_used(self):
        return self.num.variables_used() | self.den.variables_used()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            _require_same_chart(self.num, other.num)
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(self.chart, other)
        return None

    def __add__(self, other):
        # reduced-operand addition: gcds touch denominators only, never the
        # full cross products
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d = poly_gcd(self.den, other.den)
        if d.is_one():
            return RatFunc._reduced(
                self.num * other.den + other.num * self.den,
                self.den * other.den)
        left = self.den.divexact(d)
        right = other.den.divexact(d)
        t = self.num * right + other.num * left
        if t.is_zero():
            return self.chart.zero()
        e = poly_gcd(t, d)
        if e.is_one():
            return RatFunc._reduced(t, left * other.den)
        return RatFunc._reduced(t.divexact(e), left * other.den.divexact(e))

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return self
        return RatFunc._new(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # cross-reduction of already-reduced fractions keeps results reduced
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        # a factor of one leaves the other operand, which is already canonical
        if self.is_one():
            return other
        if other.is_one():
            return self
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        num = self.num.divexact(g1) * other.num.divexact(g2)
        den = self.den.divexact(g2) * other.den.divexact(g1)
        return RatFunc._reduced(num, den)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero():
            raise DivisionByZero("reciprocal of the zero function")
        return RatFunc._reduced(*((self.den, self.num)
                                  if self.num.leading()[1] > 0
                                  else (-self.den, -self.num)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num.terms and other.num.terms:
            return self
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n == 0:
            return RatFunc.constant(self.chart, 1)
        if n < 0:
            return self.reciprocal() ** (-n)
        return RatFunc._reduced(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(self.chart, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, var):
        i = self.chart.index(var)
        if not any(e[i] for e in self.num.terms) \
                and not any(e[i] for e in self.den.terms):
            return self.chart.zero()
        dn = self.num.derivative(var)
        if self.den.is_one():
            return RatFunc._reduced(dn, self.den)
        dd = self.den.derivative(var)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point):
        return Fraction(*self.integer_pair(point))

    def integer_pair(self, point):
        """Integers (n, d), d != 0, whose quotient is the value at ``point``.

        Raises PoleAtPoint when the denominator vanishes there.
        """
        if point.chart != self.chart:
            raise ChartMismatch("point lives on a different chart")
        if not self.num.terms:
            return 0, 1
        n, dn = point.homogenized(self.num)
        d, dd = point.homogenized(self.den)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {point.render()}")
        # num(point) = n / B^dn and den(point) = d / B^dd
        if dn > dd:
            d *= point.scale_power(dn - dd)
        elif dd > dn:
            n *= point.scale_power(dd - dn)
        return n, d

    def substitute(self, target, mapping):
        num = self.num.substitute(target, mapping)
        den = self.den.substitute(target, mapping)
        return num / den

    def render(self):
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFunc({self.render()})"


class PointQ:
    """A point of a chart with exact rational coordinates.

    For integer evaluation the point keeps its common denominator B, the
    integers A_i = B * (coordinate i), and power tables [1, a, a^2, ...] of
    each A_i and of B, grown on demand.
    """

    __slots__ = ("chart", "coordinates", "_powers", "_scale_powers")

    def __init__(self, chart, coordinates):
        coordinates = tuple(Fraction(c) for c in coordinates)
        if len(coordinates) != chart.dimension:
            raise ValueError(
                f"expected {chart.dimension} coordinates, got {len(coordinates)}")
        self.chart = chart
        self.coordinates = coordinates
        scale = lcm(*(c.denominator for c in coordinates))
        self._powers = tuple([1, c.numerator * (scale // c.denominator)]
                             for c in coordinates)
        self._scale_powers = [1, scale]

    def scale_power(self, k):
        """B^k for the common denominator B of the coordinates."""
        return _power(self._scale_powers, k)

    def homogenized(self, poly):
        """``(B^d * poly(point), d)``, an integer and the total degree d.

        Each term c * x^e contributes c * A^e * B^(d - |e|), so no fraction
        is formed.
        """
        powers = self._powers
        values = []
        degree = 0
        for e, c in poly.terms.items():
            for table, k in zip(powers, e):
                if k:
                    try:
                        c *= table[k]
                    except IndexError:
                        c *= _power(table, k)
            size = sum(e)
            if size > degree:
                degree = size
            values.append((c, size))
        if self._scale_powers[1] == 1:
            return sum(c for c, _ in values), degree
        total = 0
        for c, size in values:
            total += c * self.scale_power(degree - size)
        return total, degree

    def render(self):
        return "(" + ", ".join(_render_fraction(c) for c in self.coordinates) + ")"

    def __eq__(self, other):
        if not isinstance(other, PointQ):
            return NotImplemented
        return self.chart == other.chart and self.coordinates == other.coordinates

    def __hash__(self):
        return hash((self.chart, self.coordinates))

    def __repr__(self):
        return f"PointQ{self.render()}"


def _power(table, k):
    """``table[k]`` of a power table [1, a, a^2, ...], grown as needed."""
    while len(table) <= k:
        table.append(table[-1] * table[1])
    return table[k]


def _render_fraction(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
