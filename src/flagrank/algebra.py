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
without building anything.  Polynomial operands skip the fraction machinery:
a ``Polynomial`` product with the constant one returns the other operand,
sums over denominators of one add numerators with no gcd, a sum over one
shared denominator runs one gcd of the numerators' sum against it, and no
gcd runs against a denominator of one (it is one).  Each short path returns
the canonical value the full computation builds.  Values are shared, so no
code may mutate ``Polynomial.terms`` in place.

Each monomial is one packed ``int``, and ``Polynomial.terms`` maps these
keys to coefficients.  On a chart of dimension n every field is
``_WIDTH`` = 32 bits wide: variable i sits at shift (n - 1 - i) * 32 and the
total degree at shift n * 32.  Integer ``<`` on keys is therefore the
graded-lex order (total degree, then exponents left to right), a product's
key is the sum of its factors' keys, and the constant monomial is key 0.
The layout depends only on n, so equal but distinct charts pack alike.
``Chart.pack`` and ``Chart.unpack`` are the one bridge to exponent tuples,
and the public ``Polynomial(chart, {exponents: c})`` packs its keys.  A
total degree must stay below 2^31, so no field can carry into the next:
reaching the bound raises ``DegreeOverflow`` and never wraps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

from .errors import ChartMismatch, DegreeOverflow, DivisionByZero, PoleAtPoint, \
    UnknownVariable

_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
# every exponent and total degree stays below the top bit of its field
DEGREE_BOUND = 1 << (_WIDTH - 1)


class Chart:
    """Named, ordered coordinate system."""

    __slots__ = ("name", "variables", "_index", "_zero", "_one",
                 "_shifts", "_units", "_degree_shift", "_guard", "_limit")

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
        n = len(variables)
        self._degree_shift = n * _WIDTH
        self._shifts = tuple((n - 1 - i) * _WIDTH for i in range(n))
        # adding a unit raises one exponent and the total degree by one
        self._units = tuple((1 << s) | (1 << self._degree_shift) for s in self._shifts)
        # the top bit of every field, degree included
        self._guard = sum(DEGREE_BOUND << (i * _WIDTH) for i in range(n + 1))
        # a key at or above this has total degree >= 2^31
        self._limit = DEGREE_BOUND << self._degree_shift

    @property
    def dimension(self):
        return len(self.variables)

    def pack(self, exps):
        """The packed key of an exponent tuple."""
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} exponents, got {len(exps)}")
        if any(k < 0 for k in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        key = sum(exps)
        if key >= DEGREE_BOUND:
            raise DegreeOverflow(f"total degree {key} reaches the bound 2^31")
        for k in exps:
            key = (key << _WIDTH) | k
        return key

    def unpack(self, key):
        """The exponent tuple of a packed key."""
        return tuple((key >> s) & _FIELD for s in self._shifts)

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
            self._zero = RatFunc._new(Polynomial._packed(self, {}), Polynomial.one(self))
        return self._zero

    def one(self):
        """The chart's shared constant function 1/1."""
        if self._one is None:
            one = Polynomial._packed(self, {0: 1})
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

    ``terms`` maps packed monomial keys (see the module docstring) to nonzero
    int coefficients.  Instances are never mutated in place: the chart's
    zero and one are shared.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        """``terms`` maps exponent tuples to coefficients; zeros are dropped."""
        self.chart = chart
        self.terms = {chart.pack(e): c for e, c in terms.items() if c != 0}

    @classmethod
    def _packed(cls, chart, terms):
        """Internal constructor over packed keys; no coefficient may be zero."""
        self = object.__new__(cls)
        self.chart = chart
        self.terms = terms
        return self

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
        return cls._packed(chart, {0: value})

    @classmethod
    def variable(cls, chart, name):
        return cls._packed(chart, {chart._units[chart.index(name)]: 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def is_one(self):
        terms = self.terms
        return len(terms) == 1 and terms.get(0) == 1

    def constant_value(self):
        if self.is_zero():
            return 0
        [(key, c)] = self.terms.items()
        if key:
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self):
        return max(self.terms, default=0) >> self.chart._degree_shift

    def leading(self):
        """(packed key, coefficient) of the graded-lex leading term."""
        key = max(self.terms)
        return key, self.terms[key]

    def content(self):
        g = 0
        for c in self.terms.values():
            g = _igcd(g, abs(c))
        return g

    def variables_used(self):
        # a field of the OR of all keys is nonzero iff some term uses it
        used = 0
        for key in self.terms:
            used |= key
        chart = self.chart
        return {v for v, s in zip(chart.variables, chart._shifts) if (used >> s) & _FIELD}

    def __neg__(self):
        return Polynomial._packed(self.chart, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        _require_same_chart(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return Polynomial._packed(self.chart, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.chart.zero().num
            return Polynomial._packed(self.chart,
                                      {k: c * other for k, c in self.terms.items()})
        _require_same_chart(self, other)
        if other.is_one():
            return self
        if self.is_one():
            return other
        st, ot = self.terms, other.terms
        if not st or not ot:
            return self.chart.zero().num
        # the leading keys add to the product's leading key
        if max(st) + max(ot) >= self.chart._limit:
            raise DegreeOverflow(
                f"product of total degree {self.total_degree() + other.total_degree()} "
                "reaches the bound 2^31")
        out = {}
        for k1, c1 in st.items():
            for k2, c2 in ot.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Polynomial._packed(self.chart, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.chart)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            # a square past the last bit is never used and may pass the bound
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def derivative(self, var):
        i = self.chart.index(var)
        s, unit = self.chart._shifts[i], self.chart._units[i]
        # lowering one exponent maps distinct keys to distinct keys
        out = {}
        for k, c in self.terms.items():
            a = (k >> s) & _FIELD
            if a:
                out[k - unit] = c * a
        return Polynomial._packed(self.chart, out)

    def eval_var(self, i, value):
        """Substitute an integer for variable ``i``; stays a polynomial."""
        s, unit = self.chart._shifts[i], self.chart._units[i]
        out = {}
        for k, c in self.terms.items():
            a = (k >> s) & _FIELD
            k2 = k - a * unit
            v = out.get(k2, 0) + c * value ** a
            if v:
                out[k2] = v
            else:
                out.pop(k2, None)
        return Polynomial._packed(self.chart, out)

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
        unpack = self.chart.unpack
        for key, c in self.terms.items():
            term = RatFunc.constant(target, c)
            for img, k in zip(images, unpack(key)):
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
        ot = other.terms
        le = max(ot)
        lc = ot[le]
        guard = self.chart._guard
        while rem:
            re = max(rem)
            # every field of re - le is nonnegative iff no guard bit borrows
            if ((re | guard) - le) & guard != guard:
                raise ValueError("inexact polynomial division")
            q, r = divmod(rem[re], lc)
            if r:
                raise ValueError("inexact polynomial division")
            diff = re - le
            out[diff] = q
            for k2, c2 in ot.items():
                k = diff + k2
                s = rem.get(k, 0) - q * c2
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return Polynomial._packed(self.chart, out)

    def sign_normalized(self):
        """Sign flipped if the graded-lex leading coefficient is negative."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        return -self if lc < 0 else self

    # --- univariate view helpers (used by gcd) ---

    def _deg_in(self, i):
        s = self.chart._shifts[i]
        return max(((k >> s) & _FIELD for k in self.terms), default=0)

    def _univ_coeffs(self, i):
        """Coefficients by degree in variable ``i``, as polynomials without it."""
        s, unit = self.chart._shifts[i], self.chart._units[i]
        out = {}
        for k, c in self.terms.items():
            a = (k >> s) & _FIELD
            # distinct keys of one degree in ``i`` stay distinct without it
            out.setdefault(a, {})[k - a * unit] = c
        return {a: Polynomial._packed(self.chart, d) for a, d in out.items()}

    def render(self):
        """Canonical text: graded-lex descending, explicit ``^`` and ``*``."""
        if not self.terms:
            return "0"
        parts = []
        variables, unpack = self.chart.variables, self.chart.unpack
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = []
            for name, k in zip(variables, unpack(key)):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                body = int_to_decimal(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{int_to_decimal(abs(c))}*{mono}"
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
    mono = _common_monomial(f, g)
    if mono is not None:
        f = f.divexact(mono)
        g = g.divexact(mono)
    content = _igcd(f.content(), g.content())
    if content > 1:
        f = Polynomial._packed(chart, {k: c // content for k, c in f.terms.items()})
        g = Polynomial._packed(chart, {k: c // content for k, c in g.terms.items()})
    result = _heuristic_gcd(f, g)
    if result is None:
        result = _prs_entry(f, g)
    if mono is not None:
        result = result * mono
    if content > 1:
        result = result * content
    return result.sign_normalized()


def _common_monomial(f, g):
    """The largest monomial dividing every term of f and g; None if it is 1."""
    chart = f.chart
    key = 0
    for s, unit in zip(chart._shifts, chart._units):
        low = min((k >> s) & _FIELD for terms in (f.terms, g.terms) for k in terms)
        key += low * unit
    return Polynomial._packed(chart, {key: 1}) if key else None


def _balanced_digit(value, xi):
    r = value % xi
    if 2 * r > xi:
        r -= xi
    return r


def _strip_content(f):
    c = f.content()
    if c > 1:
        return c, Polynomial._packed(f.chart, {k: v // c for k, v in f.terms.items()})
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
    unit = chart._units[var]
    total = Polynomial.zero(chart)
    step = 0
    while not value.is_zero():
        shifted = {}
        rest_terms = {}
        for k, c in value.terms.items():
            d = _balanced_digit(c, xi)
            if d:
                shifted[k + step] = d
            r = (c - d) // xi
            if r:
                rest_terms[k] = r
        if shifted:
            total = total + Polynomial._packed(chart, shifted)
        value = Polynomial._packed(chart, rest_terms)
        step += unit
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
    return Polynomial._packed(chart, {k * chart._units[v]: 1})


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

    First partials are computed at most once per object: on first use,
    ``partials()`` builds ``{coordinate index: partial}`` over the
    coordinates that num or den contains and keeps it on the object.
    Values are immutable, so it never goes stale.
    """

    __slots__ = ("num", "den", "_partials")

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
                num = Polynomial._packed(num.chart, {k: c // g for k, c in num.terms.items()})
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
        self._partials = None

    @classmethod
    def _new(cls, num, den):
        """Bare constructor for a pair already in canonical form."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._partials = None
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
        return not self.num.terms

    def is_one(self):
        num, den = self.num.terms, self.den.terms
        return len(num) == 1 and len(den) == 1 and num.get(0) == 1 and den.get(0) == 1

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
        a, b = self.den, other.den
        if a is b or a == b:
            # over one denominator only the sum of numerators can share a
            # factor with it, and none when it is one
            t = self.num + other.num
            if a.is_one() or not t.terms:
                return RatFunc._reduced(t, a)
            e = poly_gcd(t, a)
            if e.is_one():
                return RatFunc._reduced(t, a)
            return RatFunc._reduced(t.divexact(e), a.divexact(e))
        # a gcd against a denominator of one is one
        d = a if a.is_one() else b if b.is_one() else poly_gcd(a, b)
        if d.is_one():
            return RatFunc._reduced(self.num * b + other.num * a, a * b)
        left = a.divexact(d)
        right = b.divexact(d)
        t = self.num * right + other.num * left
        if t.is_zero():
            return self.chart.zero()
        e = poly_gcd(t, d)
        if e.is_one():
            return RatFunc._reduced(t, left * b)
        return RatFunc._reduced(t.divexact(e), left * b.divexact(e))

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
        # a cross gcd against a denominator of one is one
        g1 = other.den if other.den.is_one() else poly_gcd(self.num, other.den)
        g2 = self.den if self.den.is_one() else poly_gcd(other.num, self.den)
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

    def partials(self):
        """``{coordinate index: first partial}``, one entry per coordinate
        that num or den contains, in chart order; built once per object and
        shared with every caller, so no caller may mutate it."""
        partials = self._partials
        if partials is None:
            index = self.chart.index
            partials = self._partials = {
                index(var): self._partial(var)
                for var in sorted(self.variables_used(), key=index)}
        return partials

    def _partial(self, var):
        """The quotient rule, symbolically: the one place a ``RatFunc``
        partial is built.  ``parabolic._partials_at`` applies the same rule
        at a point, to integer values, and builds no ``RatFunc``."""
        dn = self.num.derivative(var)
        if self.den.is_one():
            return RatFunc._reduced(dn, self.den)
        dd = self.den.derivative(var)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    def derivative(self, var):
        i = self.chart.index(var)
        partial = self.partials().get(i)
        return self.chart.zero() if partial is None else partial

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
        if self.den.is_one():
            return n, point.scale_power(dn)
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
    integers A_i = B * (coordinate i), power tables [1, a, a^2, ...] of each
    A_i and of B, grown on demand, and the value A^e of each monomial key it
    has evaluated, computed on first use and kept for the point's lifetime.
    """

    __slots__ = ("chart", "coordinates", "_powers", "_scale_powers", "_monomials")

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
        self._monomials = {}

    def scale_power(self, k):
        """B^k for the common denominator B of the coordinates."""
        return _power(self._scale_powers, k)

    def homogenized(self, poly):
        """``(B^d * poly(point), d)``, an integer and the total degree d.

        Each term c * x^e contributes c * A^e * B^(d - |e|), so no fraction
        is formed; A^e comes from the point's monomial values.
        """
        terms = poly.terms
        if not terms:
            return 0, 0
        monomials = self._monomials
        shift = self.chart._degree_shift
        degree = max(terms) >> shift
        total = 0
        if self._scale_powers[1] == 1:
            for k, c in terms.items():
                v = monomials.get(k)
                if v is None:
                    v = self._monomial(k)
                total += c * v
            return total, degree
        scale = self._scale_powers
        _power(scale, degree)
        for k, c in terms.items():
            v = monomials.get(k)
            if v is None:
                v = self._monomial(k)
            if v:
                total += c * v * scale[degree - (k >> shift)]
        return total, degree

    def _monomial(self, key):
        """A^e for the monomial ``key``; the one place it is computed."""
        value = 1
        for table, s in zip(self._powers, self.chart._shifts):
            k = (key >> s) & _FIELD
            if k:
                value *= _power(table, k)
        self._monomials[key] = value
        return value

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
        return int_to_decimal(q.numerator)
    return f"{int_to_decimal(q.numerator)}/{int_to_decimal(q.denominator)}"


# CPython checks int <-> decimal text conversions only past 640 digits (the
# limit, 4300 digits by default, may be set no lower); parts stay below that.
_DIRECT_DIGITS = 600


def int_to_decimal(n):
    """``str(n)`` for an integer of any size, split at powers of ten."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= 3 * _DIRECT_DIGITS:  # 2^1800 has 542 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits of n
    high, low = divmod(n, 10 ** k)
    return int_to_decimal(high) + int_to_decimal(low).zfill(k)


def decimal_to_int(digits):
    """``int(digits)`` for a string of decimal digits of any length."""
    if len(digits) <= _DIRECT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return decimal_to_int(digits[:-k]) * 10 ** k + decimal_to_int(digits[-k:])
