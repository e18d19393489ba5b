"""Exact arithmetic over multivariate rational functions.

A :class:`Chart` fixes an ordered tuple of coordinate names; the order defines
the graded-lexicographic monomial order used everywhere (canonical printing,
leading terms, pivot scoring).  :class:`Polynomial` is a sparse
integer-coefficient polynomial; :class:`RatFunc` is a reduced fraction whose
denominator is kept factored, and is the coefficient field for the whole
package.  All values are immutable, and a numerator and an expanded
denominator are canonical: two construction orders of the same function
yield identical ``num`` and ``den``, so equality and zero tests are exact.

Most arithmetic in a bracket computation is on zeros, so zero and one are
free: each chart holds one shared zero and one shared one, built on first
use, and ``RatFunc`` operations return a zero operand (or the other operand)
without building anything.  Polynomial operands skip the fraction machinery:
a ``Polynomial`` product with the constant one returns the other operand,
and sums and products over denominators of one add or multiply numerators
with no reduction at all.  Each short path returns
the canonical value the full computation builds.  Values are shared, so no
code may mutate ``Polynomial.terms`` in place.

A denominator is a positive integer times q_1^k_1 ... q_m^k_m over
pairwise coprime, squarefree, primitive bases q_i.  A base is marked
irreducible when a cheap exact certificate proves it (``_is_certified``),
and a numerator is reduced against such a base by trial division alone.
A product adds exponents, and each numerator meets only the bases of the
other operand's denominator.  A sum takes the larger exponent of each base,
after different bases are refined to one coprime set by gcds between bases
(``_refine``).  The quotient rule raises the exponent of each base that
contains the variable and reduces the new numerator against the other
bases only.  ``poly_gcd`` thus runs between bases and against uncertified
bases, never against an expanded power.  A reciprocal's base stays pending
until a cancellation or a gcd needs it split into squarefree bases.

A sum of products s * a * b, the shape of every bracket, directional
derivative and pairing, is one call of ``sum_of_products``: the products
over denominators of one go into one term dict, the rest are lifted to the
lcm of their denominators, and the sum is reduced against that lcm's bases.

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

Fractions are reduced by ``poly_gcd``, which is exact and has no slow cliff:
coprime operands are certified by one image mod 2^61 - 1 per shared
variable, operands with a variable on one side only split into coefficient
gcds, a divisor with fewer terms is found by one division, and what is left
goes to Brown's dense modular gcd, proved by trial division.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import gcd as _igcd, isqrt, lcm

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
        return RatFunc._new(Polynomial.variable(self, name))

    def const(self, value):
        return RatFunc.constant(self, value)

    def zero(self):
        """The chart's shared zero function 0/1."""
        if self._zero is None:
            self._zero = RatFunc._new(Polynomial._packed(self, {}))
        return self._zero

    def one(self):
        """The chart's shared constant function 1/1."""
        if self._one is None:
            self._one = RatFunc._new(Polynomial._packed(self, {0: 1}))
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
        variables = self.chart.variables
        return {variables[i] for i in self._used()}

    def _used(self):
        """The indices of the variables some term contains."""
        # a field of the OR of all keys is nonzero iff some term uses it
        used = 0
        for key in self.terms:
            used |= key
        return frozenset(i for i, s in enumerate(self.chart._shifts)
                         if (used >> s) & _FIELD)

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

    After the common monomial and the common integer content are stripped,
    a common divisor contains only variables that both operands use; with
    none shared the gcd is the integer content gcd.  Otherwise four exact
    steps run, cheapest first:

    1. Coprimality certificate.  Every variable either operand uses gets a
       fixed value mod p = 2^61 - 1, except one shared variable v at a
       time.  If one operand's leading coefficient in v stays nonzero
       there, the gcd's does too (it divides it), so a constant F_p[v] gcd
       of the two images proves deg_v gcd = 0.  When every shared v
       passes, the gcd is a constant; an image never decides anything
       else.  A coprime gcd(N, (1 + z^2)^k) thus costs one image of N.
       A v whose degrees in f and g multiply past ``_CERTIFICATE_WORK``
       is left to the next steps.
    2. Shared-variable split.  When some variable occurs in one operand
       only, the gcd is the gcd of both operands' coefficients, read as
       polynomials in the variables outside the shared set.
    3. Divides-first.  When the operand with fewer terms (of the two with
       as many, the one of lower total degree) divides the other, it is the
       gcd: one exact division.
    4. Brown's dense modular gcd (``_brown_gcd``), proved by trial
       division.  Its lists are dense, so operands of a degree above
       ``_DENSE_DEGREE`` in some variable raise DegreeOverflow instead.
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
    mono = _common_monomial(f, g)
    if mono is not None:
        f = f.divexact(mono)
        g = g.divexact(mono)
    content = _igcd(f.content(), g.content())
    f, g = _without_content(f, content), _without_content(g, content)
    result = _coprime_content_gcd(f, g)
    if mono is not None:
        result = result * mono
    if content > 1:
        result = result * content
    return result.sign_normalized()


def _common_monomial(f, g):
    """The largest monomial dividing every term of f and g; None if it is 1."""
    if 0 in f.terms or 0 in g.terms:
        return None
    chart = f.chart
    key = 0
    for s, unit in zip(chart._shifts, chart._units):
        low = min((k >> s) & _FIELD for terms in (f.terms, g.terms) for k in terms)
        key += low * unit
    return Polynomial._packed(chart, {key: 1}) if key else None


def _strip_content(f):
    c = f.content()
    return c, _without_content(f, c)


def _quotient(poly, divisor):
    """``poly / divisor`` when it is a polynomial, else None."""
    try:
        return poly.divexact(divisor)
    except ValueError:
        return None


def _divides(candidate, poly):
    return _quotient(poly, candidate) is not None


def _coprime_content_gcd(f, g):
    """gcd of nonconstant f and g whose integer contents are coprime."""
    used_f, used_g = f._used(), g._used()
    shared = used_f & used_g
    if not shared:
        return Polynomial.one(f.chart)
    if _coprime_mod_p(f, g, sorted(shared), sorted(used_f | used_g)):
        return Polynomial.one(f.chart)
    if used_f != used_g:
        return _gcd_fold(_coefficients(f, used_f - shared)
                         + _coefficients(g, used_g - shared))
    # coprime contents: a divisor is primitive, so it is the gcd; the smaller
    # operand by term count, then by total degree, is the one to try
    small, large = sorted((f, g), key=lambda p: (len(p.terms), p.total_degree()))
    if _divides(small, large):
        return small.sign_normalized()
    return _brown_gcd(f, g)


def _coefficients(poly, indices):
    """The coefficients of ``poly`` read as a polynomial in the variables
    ``indices``: polynomials in the other variables."""
    shifts, units = poly.chart._shifts, poly.chart._units
    groups = {}
    for k, c in poly.terms.items():
        rest = k
        for i in indices:
            rest -= ((k >> shifts[i]) & _FIELD) * units[i]
        groups.setdefault(k - rest, {})[rest] = c
    return [Polynomial._packed(poly.chart, terms) for terms in groups.values()]


def _gcd_fold(polys):
    """The gcd of nonempty ``polys``, smallest first; it stops at one."""
    polys = sorted(polys, key=lambda p: len(p.terms))
    result = polys[0].sign_normalized()
    for p in polys[1:]:
        if result.is_one():
            break
        result = poly_gcd(result, p)
    return result


_PRIME = (1 << 61) - 1
# The certificate's F_p[v] gcd is dense: it costs about deg_v f * deg_v g
# steps, so a variable whose degrees multiply past this is left undecided.
_CERTIFICATE_WORK = 1 << 16


def _coprime_mod_p(f, g, indices, used):
    """True when images mod p prove that gcd(f, g) has degree 0 in each of
    ``indices``, the variables that both f and g contain; ``used`` lists
    every variable that f or g contains.

    For each v in ``indices`` every other variable of ``used`` gets a fixed
    residue.  The gcd contains only variables of ``indices``, and lc_v(gcd)
    divides lc_v(f) and lc_v(g), so when either stays nonzero mod p the
    gcd's image keeps its degree in v, and that image divides the F_p[v]
    gcd of the images.  A v of too high a degree (``_CERTIFICATE_WORK``)
    gives False, as does a vanishing pair of leading coefficients.
    """
    point = [(i, _certificate_residue(i)) for i in used]
    for i in indices:
        fi, gi = _image_mod(f, i, point), _image_mod(g, i, point)
        df, dg = max(fi), max(gi)
        if df * dg > _CERTIFICATE_WORK or not (fi[df] or gi[dg]):
            return False
        fi = _trim([fi.get(e, 0) for e in range(df + 1)])
        gi = _trim([gi.get(e, 0) for e in range(dg + 1)])
        if len(_gcd_univariate(fi, gi, _PRIME)) != 1:
            return False
    return True


def _certificate_residue(i):
    """The fixed residue the certificate gives variable i."""
    return 0x9E3779B97F4A7C15 * (i + 1) % _PRIME


def _image_mod(poly, i, point):
    """``{degree in variable i: coefficient mod p}`` of ``poly``, with every
    other variable of ``point`` set to its residue; every degree that
    ``poly`` has in i is a key, also where its image is 0."""
    shifts = poly.chart._shifts
    s = shifts[i]
    # r^e mod p per fixed variable, kept by exponent: exponents run to 2^31
    tables = [(shifts[j], value, {}) for j, value in point if j != i]
    image = {}
    for k, c in poly.terms.items():
        for t, value, table in tables:
            e = (k >> t) & _FIELD
            if e:
                power = table.get(e)
                if power is None:
                    power = table[e] = pow(value, e, _PRIME)
                c = c * power % _PRIME
        e = (k >> s) & _FIELD
        image[e] = image.get(e, 0) + c
    return {e: c % _PRIME for e, c in image.items()}


# --- Brown's dense modular gcd (W. S. Brown, JACM 18, 1971) ---

# Brown's lists run out to each variable's degree, about 110 bytes a degree,
# so past this bound a gcd raises DegreeOverflow.  At it, gcd((x^(2^20) + x + 3)
# *(x^2 + 1), (x^60 + x + 1)*(x^2 + 1)) takes 12.6 s and 130 MB; 2 GB comes near
# 2^24 (CPython 3.11, Xeon VM).  Time is not capped: with h = x^2048 + y^2048 + z,
# gcd(h*(x + y + z + 1), h*(x - y + 2)) takes 23 s and 18 MB.
_DENSE_DEGREE = 1 << 20

def _brown_gcd(f, g):
    """gcd of nonzero f and g by Brown's dense modular algorithm.

    The gcd's image mod each prime below 2^61 comes from ``_gcd_mod``,
    scaled to gamma = igcd(lc f, lc g), which the true gcd's leading
    coefficient divides.  Images whose leading monomial is above another's
    are unlucky and dropped; the rest are combined by the Chinese remainder
    theorem.  Once a prime leaves the symmetric lift unchanged, or all of
    its coefficients lie below the square root of the modulus, its
    primitive part is tried by exact division of f and g, which proves it.
    """
    chart = f.chart
    cf, f = _strip_content(f)
    cg, g = _strip_content(g)
    content = Polynomial.constant(chart, _igcd(cf, cg))
    indices = sorted(f._used() | g._used())
    degree = max((p._deg_in(i) for p in (f, g) for i in indices), default=0)
    if degree > _DENSE_DEGREE:
        raise DegreeOverflow(f"a gcd of degree {degree} in one variable exceeds "
                             f"the dense bound {_DENSE_DEGREE}")
    gamma = _igcd(f.leading()[1], g.leading()[1])
    residues = lead = modulus = previous = None
    for p in _primes():
        if gamma % p == 0:
            continue
        image = _gcd_mod(_reduce_mod(f, p), _reduce_mod(g, p), indices, chart, p)
        top = max(image)
        if not top:
            return content
        scale = gamma % p
        image = {k: c * scale % p for k, c in image.items()}
        if lead is None or top < lead:
            residues, lead, modulus, previous = image, top, p, None
        elif top > lead:
            continue
        else:
            inverse = pow(modulus, -1, p)
            for k in residues.keys() | image.keys():
                r = residues.get(k, 0)
                residues[k] = r + modulus * ((image.get(k, 0) - r) * inverse % p)
            modulus *= p
        lifted = {k: c - modulus if 2 * c > modulus else c
                  for k, c in residues.items() if c}
        # a wrong lift has coefficients spread over the whole modulus
        if lifted == previous or max(map(abs, lifted.values())) ** 2 < modulus:
            candidate = _strip_content(Polynomial._packed(chart, lifted))[1]
            if _divides(candidate, f) and _divides(candidate, g):
                return candidate.sign_normalized() * content
        previous = lifted


def _primes():
    """The primes below 2^61, largest first."""
    n = _PRIME
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3 * 10^24."""
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reduce_mod(poly, p):
    """``poly`` as {packed key: residue mod p}, zero residues dropped."""
    return {k: r for k, c in poly.terms.items() if (r := c % p)}


def _gcd_mod(a, b, indices, chart, p):
    """Monic gcd over F_p of nonzero a and b ({packed key: residue}) in the
    variables ``indices``.

    The last variable v is evaluated and interpolated.  Both operands are
    made primitive over F_p[v]; gamma = gcd of their leading coefficients
    bounds the leading coefficient of the gcd of the primitive parts.  Each
    point alpha with gamma(alpha) != 0 gives a recursive image scaled to
    gamma(alpha), interpolated in v.  After deg gamma + min deg_v points, or
    once a point leaves the interpolant unchanged, its primitive part is
    tried by exact division over F_p.
    """
    if not indices:
        return {0: 1}
    *rest, v = indices
    s, unit = chart._shifts[v], chart._units[v]
    if not rest:
        gcd = _gcd_univariate(_split_mod(a, s, unit)[0], _split_mod(b, s, unit)[0], p)
        return {e * unit: c for e, c in enumerate(gcd) if c}
    a, b = _split_mod(a, s, unit), _split_mod(b, s, unit)
    content_a, content_b = _content_mod(a, p), _content_mod(b, p)
    content = _gcd_univariate(content_a, content_b, p)
    if len(content_a) > 1:
        a = {k: _divmod_univariate(u, content_a, p)[0] for k, u in a.items()}
    if len(content_b) > 1:
        b = {k: _divmod_univariate(u, content_b, p)[0] for k, u in b.items()}
    gamma = _gcd_univariate(a[max(a)], b[max(b)], p)
    bound = len(gamma) + min(max(map(len, a.values())), max(map(len, b.values()))) - 2
    interpolant = lead = None
    alpha = 0
    while True:
        alpha += 1
        scale = _horner(gamma, alpha, p)
        if not scale:
            continue
        image = _gcd_mod(_at(a, alpha, p), _at(b, alpha, p), rest, chart, p)
        top = max(image)
        if not top:
            # the primitive parts are coprime
            return {e * unit: c for e, c in enumerate(content) if c}
        if interpolant is None or top < lead:
            interpolant = {k: [c * scale % p] for k, c in image.items()}
            lead, points, changed = top, [p - alpha, 1], True
        elif top > lead:
            continue
        else:
            inverse = pow(_horner(points, alpha, p), -1, p)
            changed = False
            for k in interpolant.keys() | image.keys():
                u = interpolant.get(k, [])
                d = (image.get(k, 0) * scale - _horner(u, alpha, p)) * inverse % p
                if d:
                    changed = True
                    u = _add_univariate(u, [d * m % p for m in points], p)
                    if u:
                        interpolant[k] = u
                    else:
                        del interpolant[k]
            points = _mul_univariate(points, [p - alpha, 1], p)
        if len(points) - 1 > bound or not changed:
            primitive = _content_mod(interpolant, p)
            if len(primitive) > 1:
                interpolant = {k: _divmod_univariate(u, primitive, p)[0]
                               for k, u in interpolant.items()}
            candidate = _join(interpolant, unit)
            if _divides_mod(candidate, _join(a, unit), chart, p) \
                    and _divides_mod(candidate, _join(b, unit), chart, p):
                result = _join({k: _mul_univariate(u, content, p)
                                for k, u in interpolant.items()}, unit)
                inverse = pow(result[max(result)], -1, p)
                return {k: c * inverse % p for k, c in result.items()}


def _split_mod(a, s, unit):
    """{key without v: coefficient list in v, lowest first} for the variable
    at shift ``s`` with unit key ``unit``."""
    out = {}
    for k, c in a.items():
        e = (k >> s) & _FIELD
        u = out.setdefault(k - e * unit, [])
        if len(u) <= e:
            u.extend([0] * (e + 1 - len(u)))
        u[e] = c
    return out


def _join(split, unit):
    """The inverse of ``_split_mod``."""
    return {k + e * unit: c for k, u in split.items() for e, c in enumerate(u) if c}


def _content_mod(split, p):
    """The monic gcd of a split polynomial's coefficient lists."""
    content = []
    for u in split.values():
        content = _gcd_univariate(content, u, p)
        if len(content) == 1:
            break
    return content


def _at(split, alpha, p):
    """A split polynomial with its variable set to ``alpha``."""
    return {k: r for k, u in split.items() if (r := _horner(u, alpha, p))}


def _divides_mod(divisor, a, chart, p):
    """True when ``divisor`` divides ``a`` over F_p."""
    rem = dict(a)
    lead = max(divisor)
    inverse = pow(divisor[lead], -1, p)
    guard = chart._guard
    while rem:
        top = max(rem)
        # every field of top - lead is nonnegative iff no guard bit borrows
        if ((top | guard) - lead) & guard != guard:
            return False
        q, diff = rem[top] * inverse % p, top - lead
        for k, c in divisor.items():
            k += diff
            r = (rem.get(k, 0) - q * c) % p
            if r:
                rem[k] = r
            else:
                rem.pop(k, None)
    return True


# --- dense univariate arithmetic over F_p: coefficient lists, lowest first,
# no trailing zeros ---

def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def _horner(u, x, p):
    value = 0
    for c in reversed(u):
        value = (value * x + c) % p
    return value


def _add_univariate(u, w, p):
    if len(u) < len(w):
        u, w = w, u
    out = list(u)
    for i, c in enumerate(w):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _mul_univariate(u, w, p):
    out = [0] * (len(u) + len(w) - 1)
    for i, c in enumerate(u):
        for j, d in enumerate(w):
            out[i + j] += c * d
    return [c % p for c in out]


def _divmod_univariate(u, d, p):
    """Quotient and remainder of ``u`` by nonzero ``d``."""
    n = len(d) - 1
    rem = list(u)
    if len(rem) <= n:
        return [], rem
    inverse = 1 if d[-1] == 1 else pow(d[-1], -1, p)
    quotient = [0] * (len(rem) - n)
    for shift in range(len(rem) - 1 - n, -1, -1):
        q = rem[shift + n] * inverse % p
        if q:
            quotient[shift] = q
            for i in range(n):
                rem[shift + i] = (rem[shift + i] - q * d[i]) % p
    return quotient, _trim(rem[:n])


def _gcd_univariate(u, w, p):
    """The monic gcd of two coefficient lists over F_p; [] when both are zero."""
    while w:
        u, w = w, _divmod_univariate(u, w, p)[1]
    if u and u[-1] != 1:
        inverse = pow(u[-1], -1, p)
        u = [c * inverse % p for c in u]
    return u


# --- factored denominators ---

def _is_certified(q):
    """True when a cheap exact certificate proves the nonconstant q
    irreducible over the integers.  Two shapes are certified, and only for
    a primitive q:

    - q = a*v + b of degree 1 in some variable v, where a or b is one term
      that the other shares no factor with: a factor of q free of v would
      divide a and b, and q has no second factor with v;
    - a quadratic in one variable whose discriminant is not a square, which
      has no rational root.
    """
    if q.content() != 1:
        return False
    used = sorted(q._used())
    if len(used) == 1 and q._deg_in(used[0]) == 2:
        unit = q.chart._units[used[0]]
        a, b, c = q.terms[2 * unit], q.terms.get(unit, 0), q.terms.get(0, 0)
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    for i in used:
        if q._deg_in(i) == 1:
            coefficients = q._univ_coeffs(i)
            a, b = coefficients[1], coefficients.get(0)
            if b is None:
                if a.is_constant():
                    return True
            elif _monomial_coprime(a, b) or _monomial_coprime(b, a):
                return True
    return False


def _monomial_coprime(a, b):
    """True when a is one term c*m that shares no factor with b; q = a*v + b
    is primitive, so c and b's content are coprime, and b must hold a term
    free of each variable of m."""
    if len(a.terms) != 1:
        return False
    [key] = a.terms
    return all(any(not (k >> s) & _FIELD for k in b.terms)
               for s in a.chart._shifts if (key >> s) & _FIELD)


def _squarefree_bases(q):
    """Bases (p, k, irreducible) with q = prod p^k, for a primitive,
    nonconstant q with a positive leading coefficient: pairwise coprime,
    squarefree and primitive p, each with a positive leading coefficient.

    A certified q is its own base.  Otherwise q's content in its first
    variable v and the rest are decomposed in turn, and Yun's algorithm
    splits a q primitive in v by multiplicity; a squarefree q costs the one
    gcd(q, q_v), which is one.
    """
    if _is_certified(q):
        return [(q, 1, True)]
    i = min(q._used())
    content = _gcd_fold(q._univ_coeffs(i).values())
    if not content.is_one():
        return _squarefree_bases(content) + _squarefree_bases(q.divexact(content))
    var = q.chart.variables[i]
    d = q.derivative(var)
    g = poly_gcd(q, d)
    if g.is_one():
        return [(q, 1, False)]
    bases = []
    c = q.divexact(g)
    d = d.divexact(g) - c.derivative(var)
    k = 1
    while not c.is_one():
        h = poly_gcd(c, d)
        c = c.divexact(h)
        d = d.divexact(h) - c.derivative(var)
        if not h.is_one():
            bases.append((h, k, _is_certified(h)))
        k += 1
    return bases


def _cancel(num, q, k, irreducible):
    """Cancel what ``num`` shares with q^k, for a base q of a denominator.

    Returns ``num`` over the shared factor and the bases left of q^k.  A
    certified q is tried by trial division alone, at most k times.  A
    pending q is split into squarefree bases first.  Any other q meets
    ``poly_gcd`` once per power: q is squarefree, so g = gcd(num, q) holds
    every factor that q shares with num, q/g keeps the exponent k, and g is
    tried again with k - 1.
    """
    if num.is_constant():
        return num, [(q, k, irreducible)]
    if irreducible is None:
        left = []
        for p, m, state in _squarefree_bases(q):
            num, more = _cancel(num, p, k * m, state)
            left += more
        return num, left
    if irreducible:
        j = 0
        while j < k and (quotient := _quotient(num, q)) is not None:
            num, j = quotient, j + 1
        return num, [(q, k - j, True)] if j < k else []
    g = poly_gcd(num, q)
    if g.is_one():
        return num, [(q, k, False)]
    num, rest = num.divexact(g), q.divexact(g)
    left = [] if rest.is_one() else [(rest, k, _is_certified(rest))]
    if k > 1:
        num, more = _cancel(num, g, k - 1, not rest.is_one() and _is_certified(g))
        left += more
    return num, left


def _without_content(poly, c):
    """``poly`` with every coefficient divided exactly by the integer c."""
    if c == 1:
        return poly
    return Polynomial._packed(poly.chart, {k: v // c for k, v in poly.terms.items()})


def _cancel_all(num, scale, entries):
    """``(num, scale, bases)`` with ``num`` reduced against the integer
    ``scale`` and against each base (q, k, irreducible) of ``entries``."""
    bases = []
    for q, k, irreducible in entries:
        num, left = _cancel(num, q, k, irreducible)
        bases += left
    if scale > 1:
        g = _igcd(num.content(), scale)
        num, scale = _without_content(num, g), scale // g
    return num, scale, bases


def _settled(bases):
    """``bases`` with each pending base replaced by its squarefree bases."""
    return [(p, k * m, state) for q, k, irreducible in bases
            for p, m, state in ([(q, 1, irreducible)] if irreducible is not None
                                else _squarefree_bases(q))]


def _base_gcd(p, p_irreducible, q, q_irreducible):
    """gcd of two bases: one gcd when neither is certified, a trial
    division when one is, and nothing when both are (they differ)."""
    if p is q or p == q:
        return p
    one = Polynomial.one(p.chart)
    if p_irreducible and q_irreducible:
        return one
    if p_irreducible:
        return one if _quotient(q, p) is None else p
    if q_irreducible:
        return one if _quotient(p, q) is None else q
    return poly_gcd(p, q)


def _refine(lists):
    """Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 1993)
    of the bases of several denominators, each a sequence of
    (q, k, irreducible).

    Returns pieces ``[p, irreducible, exponents]``: pairwise coprime and
    primitive, where ``exponents[i]`` is the exponent in list i of the base
    that p divides (0 for none), and each base is the product of its
    pieces.  An equal base merges without a gcd, and gcds run between bases
    only.  A pending base that some other list's base differs from is
    split into squarefree bases first; then one gcd g of a piece and a new
    base splits both into g and rests coprime to g and to each other, and
    one pass over the pieces suffices.
    """
    if any(irreducible is None for bases in lists for _, _, irreducible in bases):
        lists = [_settled(bases) if any(
            irreducible is None and any(r is not q and r != q
                                        for j, other in enumerate(lists) if j != i
                                        for r, _, _ in other)
            for q, _, irreducible in bases) else bases
            for i, bases in enumerate(lists)]
    pieces = []
    for i, bases in enumerate(lists):
        for q, k, irreducible in bases:
            same = next((piece for piece in pieces if piece[0] is q or piece[0] == q), None)
            if same is not None:
                same[2][i] = k
                continue
            rest = q
            for piece in list(pieces):
                p, p_irreducible, exponents = piece
                if exponents[i]:
                    continue  # a base of list i, coprime to q
                g = _base_gcd(p, p_irreducible, rest, irreducible and rest is q)
                if g.is_one():
                    continue
                if g is p or g == p:
                    exponents[i] = k
                else:
                    piece[0] = p.divexact(g)
                    piece[1] = _is_certified(piece[0])
                    split = list(exponents)
                    split[i] = k
                    pieces.append([g, _is_certified(g), split])
                rest = rest.divexact(g)
                if rest.is_one():
                    break
            if not rest.is_one():
                exponents = [0] * len(lists)
                exponents[i] = k
                pieces.append([rest, irreducible if rest is q else _is_certified(rest),
                               exponents])
    return pieces


def _make(num, scale, bases):
    """The RatFunc of a numerator and a factored denominator that are
    already coprime; zero is the chart's zero."""
    if not num.terms:
        return num.chart.zero()
    if bases:
        shift = num.chart._degree_shift
        degree = sum(k * (max(q.terms) >> shift) for q, k, _ in bases)
        if degree >= DEGREE_BOUND:
            raise DegreeOverflow(
                f"denominator of total degree {degree} reaches the bound 2^31")
    return RatFunc._new(num, scale, tuple(bases))


class RatFunc:
    """Reduced fraction of integer polynomials with a factored denominator;
    the package's coefficient field.

    The denominator is ``scale * q_1^k_1 * ... * q_m^k_m``: ``scale`` is a
    positive integer and ``bases`` a tuple of (q_i, k_i, irreducible) with
    k_i >= 1.  The q_i are pairwise coprime, squarefree and primitive, with
    positive leading coefficients; ``irreducible`` is True when
    ``_is_certified`` proves q_i irreducible.  A reciprocal's base is
    pending (``irreducible`` None): neither certified nor known to be
    squarefree, it is split by ``_squarefree_bases`` when a cancellation or
    a gcd needs it.  ``num`` is
    coprime to the scale and to every base, so num/den is in lowest terms,
    and ``den``, the expanded product, built once per object on first use,
    has a positive leading coefficient.  Zero is 0/1 and shares the polynomials
    of its chart's zero.  One value may have several factorisations, so
    ``==`` and ``hash`` read ``num`` and ``den``: equality is semantic.

    First partials are computed at most once per object: on first use,
    ``partials()`` builds ``{coordinate index: partial}`` over the
    coordinates that num or den contains and keeps it on the object.
    Values are immutable, so it never goes stale.
    """

    __slots__ = ("num", "scale", "bases", "_den", "_partials")

    def __init__(self, num, den):
        _require_same_chart(num, den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        scale, bases = 1, []
        if num.is_zero():
            num = num.chart.zero().num
        else:
            scale = den.content()
            if den.leading()[1] < 0:
                num, scale = -num, -scale
            base = _without_content(den, scale)
            scale = abs(scale)
            entries = [] if base.is_one() else _squarefree_bases(base)
            num, scale, bases = _cancel_all(num, scale, entries)
        self.num = num
        self.scale = scale
        self.bases = tuple(bases)
        self._den = None
        self._partials = None

    @classmethod
    def _new(cls, num, scale=1, bases=()):
        """Bare constructor for parts already in canonical form."""
        self = object.__new__(cls)
        self.num = num
        self.scale = scale
        self.bases = bases
        self._den = None
        self._partials = None
        return self

    @classmethod
    def constant(cls, chart, value):
        if isinstance(value, RatFunc):
            return value
        if value == 0:
            return chart.zero()
        if value == 1:
            return chart.one()
        # a Fraction is reduced, with a positive denominator
        q = Fraction(value)
        return cls._new(Polynomial.constant(chart, q.numerator), q.denominator)

    @property
    def chart(self):
        return self.num.chart

    @property
    def den(self):
        """The expanded denominator, built on first use."""
        den = self._den
        if den is None:
            den = Polynomial.constant(self.chart, self.scale)
            for q, k, _ in self.bases:
                den = den * q ** k
            self._den = den
        return den

    def is_zero(self):
        return not self.num.terms

    def is_one(self):
        num = self.num.terms
        return self.scale == 1 and not self.bases and len(num) == 1 and num.get(0) == 1

    def is_constant(self):
        return not self.bases and self.num.is_constant()

    def constant_value(self):
        return Fraction(self.num.constant_value(), self.scale)

    def complexity(self):
        """Cheap size measure used for pivot scoring."""
        if not self.bases:
            # the denominator is the scale: degree 0, one term
            return self.num.total_degree(), len(self.num.terms) + 1
        return (self.num.total_degree() + self.den.total_degree(),
                len(self.num.terms) + len(self.den.terms))

    def variables_used(self):
        used = self.num.variables_used()
        for q, _, _ in self.bases:
            used |= q.variables_used()
        return used

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            _require_same_chart(self.num, other.num)
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(self.chart, other)
        return None

    def __add__(self, other):
        # a sum over two denominators is a sum of products with one
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.scale == other.scale and self.bases == other.bases:
            # over one denominator only the sum of numerators can share a
            # factor with it, and none when it is one
            t = self.num + other.num
            if self.scale == 1 and not self.bases:
                return RatFunc._new(t) if t.terms else self.chart.zero()
            return _make(*_cancel_all(t, self.scale, self.bases))
        one = self.chart.one()
        return sum_of_products(self.chart, [(self, one, 1), (other, one, 1)])

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return self
        negated = RatFunc._new(-self.num, self.scale, self.bases)
        negated._den = self._den
        return negated

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
        # each numerator is coprime to its own denominator, so it is reduced
        # only against the pieces of the other denominator's bases that its
        # own does not hold
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
        n1, n2 = self.num, other.num
        if self.scale == other.scale == 1 and not (self.bases or other.bases):
            return RatFunc._new(n1 * n2)
        bases = []
        for p, irreducible, (e1, e2) in _refine((self.bases, other.bases)):
            if not e2:
                n2, left = _cancel(n2, p, e1, irreducible)
            elif not e1:
                n1, left = _cancel(n1, p, e2, irreducible)
            else:
                left = [(p, e1 + e2, irreducible)]
            bases += left
        n1, s2, _ = _cancel_all(n1, other.scale, ())
        n2, s1, _ = _cancel_all(n2, self.scale, ())
        return _make(n1 * n2, s1 * s2, bases)

    __rmul__ = __mul__

    def reciprocal(self):
        """den/num: num's content is the scale and its primitive part one
        pending base."""
        if self.is_zero():
            raise DivisionByZero("reciprocal of the zero function")
        num = self.num
        scale = num.content()
        if num.leading()[1] < 0:
            scale = -scale
        base = _without_content(num, scale)
        bases = () if base.is_one() else ((base, 1, None),)
        return RatFunc._new(self.den if scale > 0 else -self.den, abs(scale), bases)

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
        return _make(self.num ** n, self.scale ** n,
                     [(q, k * n, irreducible) for q, k, irreducible in self.bases])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(self.chart, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num != other.num:
            return False
        return (self.scale == other.scale and self.bases == other.bases) \
            or self.den == other.den

    def __hash__(self):
        # equal values without bases have equal scales, and values with
        # bases may factor alike in several ways but expand alike
        return hash((self.num, self.den if self.bases else self.scale))

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
        """The quotient rule: the one place a partial is built.

        Each base q that contains v is first made primitive in v: its
        content in v, free of v, becomes a base of its own (a certified q
        has none).  With B the bases q_i^k_i that then contain v and P the
        product of the q_i, d(num/den) = (n_v*P - n*sum k_i*q_i_v*P/q_i) /
        (den*P).  An irreducible factor of q_i contains v, divides P once
        and divides neither q_i_v (q_i is squarefree), nor n (num and den
        are coprime), nor another base, so it does not divide the top: the
        top is reduced against the scale and the bases free of v alone, a
        certified one by trial division."""
        num = self.num
        dn = num.derivative(var)
        i = self.chart.index(var)
        outer, inner = [], []
        for q, k, irreducible in _settled(self.bases):
            if not q._deg_in(i):
                outer.append((q, k, irreducible))
                continue
            if not irreducible:
                content = _gcd_fold(q._univ_coeffs(i).values())
                if not content.is_one():
                    outer.append((content, k, _is_certified(content)))
                    q = q.divexact(content)
                    irreducible = _is_certified(q)
            inner.append((q, k, irreducible))
        if not inner:
            return _make(*_cancel_all(dn, self.scale, outer))
        total = Polynomial.zero(self.chart)
        product = Polynomial.one(self.chart)
        for j, (q, k, _) in enumerate(inner):
            term = q.derivative(var) * k
            for m, (other, _, _) in enumerate(inner):
                if m != j:
                    term = term * other
            total = total + term
            product = product * q
        num, scale, bases = _cancel_all(dn * product - num * total, self.scale, outer)
        return _make(num, scale, bases + [(q, k + 1, irreducible)
                                          for q, k, irreducible in inner])

    def derivative(self, var):
        i = self.chart.index(var)
        partial = self.partials().get(i)
        return self.chart.zero() if partial is None else partial

    def evaluate(self, point):
        return Fraction(*self.integer_pair(point))

    def integer_pair(self, point):
        """Integers (n, d), d != 0, whose quotient is the value at ``point``.

        The denominator is evaluated base by base; d is the integer that
        evaluating the expanded ``den`` gives.  Raises PoleAtPoint when the
        denominator vanishes there.
        """
        if point.chart != self.chart:
            raise ChartMismatch("point lives on a different chart")
        if not self.num.terms:
            return 0, 1
        n, dn = point.homogenized(self.num)
        # num(point) = n / B^dn and den(point) = d / B^dd
        d, dd = self.scale, 0
        for q, k, _ in self.bases:
            value, degree = point.homogenized(q)
            if not value:
                raise PoleAtPoint(f"denominator vanishes at {point.render()}")
            d *= value ** k
            dd += degree * k
        if dn > dd:
            d *= point.scale_power(dn - dd)
        elif dd > dn:
            n *= point.scale_power(dd - dn)
        return n, d

    def substitute(self, target, mapping):
        value = self.num.substitute(target, mapping)
        if self.scale != 1:
            value = value * Fraction(1, self.scale)
        for q, k, _ in self.bases:
            value = value * q.substitute(target, mapping).reciprocal() ** k
        return value

    def render(self):
        if not self.bases and self.scale == 1:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFunc({self.render()})"


def sum_of_products(chart, triples):
    """The canonical ``RatFunc`` sum of s * a * b over (a, b, s) triples,
    with ``RatFunc`` factors a, b on ``chart`` and signs s = 1 or -1; the
    one exact path for a sum of products.

    A sum of no nonzero product is the chart's zero and a sum of one is
    that product.  Beyond that, products run no gcd and build no
    ``RatFunc``.  The factors' bases are refined to one coprime set of
    pieces (``_refine``), so each product's denominator is a scale and an
    exponent per piece.  Products over denominators of one add their terms
    into one dict, the others into one dict per denominator.  The common
    denominator D takes the lcm of the scales and the largest exponent of
    each piece; each dict is lifted by its cofactor in D, and the sum is
    reduced against D's scale and pieces.  A piece is skipped when one
    product alone reaches its exponent in D and each factor of that
    product has the piece in its denominator or a constant numerator: the
    piece then divides every other lifted term and is coprime to that one.

    The degree bound 2^31 applies to each product after ``RatFunc``'s
    cross-cancellation, as in ``a * b``, and to D and the numerators lifted
    to it.
    """
    live = [t for t in triples if t[0].num.terms and t[1].num.terms]
    if not live:
        return chart.zero()
    if len(live) == 1:
        # one product: ``RatFunc.__mul__`` returns a factor of one's partner
        [(a, b, s)] = live
        product = a * b
        return product if s > 0 else -product
    lists = [f.bases for a, b, _ in live for f in (a, b)]
    pieces = _refine(lists) if any(lists) else []
    plain = {}  # the products over denominators of one
    groups = {}  # (scale, exponent per piece) -> the terms of its numerators' sum
    reach = [[] for _ in pieces]  # (exponent, product index) per piece
    for index, (a, b, s) in enumerate(live):
        an, bn = a.num.terms, b.num.terms
        exponents = tuple(e[2 * index] + e[2 * index + 1] for _, _, e in pieces) \
            if pieces else ()
        scale = a.scale * b.scale
        if scale == 1 and not any(exponents):
            out = plain
        else:
            out = groups.setdefault((scale, exponents), {})
            for j, e in enumerate(exponents):
                if e:
                    reach[j].append((e, index))
        if len(bn) < len(an):
            an, bn = bn, an
        for k1, c1 in an.items():
            c1 *= s
            for k2, c2 in bn.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
    # Factors' exponents and degrees are below 2^31, so a key sum carries
    # into no other field, and cancelled keys stay in the dicts: some key is
    # at the limit iff some unreduced product reached the degree bound.
    # Then the sum is taken again over the reduced products a * b, each of
    # which raises ``DegreeOverflow`` if it still reaches the bound.
    if any(out and max(out) >= chart._limit for out in (plain, *groups.values())):
        one = chart.one()
        return sum_of_products(chart, [(a * b, one, s) for a, b, s in live])
    plain = {k: c for k, c in plain.items() if c}
    if not groups:
        return _make(Polynomial._packed(chart, plain), 1, ())
    scale = lcm(*(s for s, _ in groups))
    top = [max(e for e, _ in r) for r in reach]
    powers = {}

    def lifted(terms, s, exponents):
        cofactor = Polynomial.constant(chart, scale // s)
        for j, (p, _, _) in enumerate(pieces):
            e = top[j] - exponents[j]
            if e:
                if (j, e) not in powers:
                    powers[j, e] = p ** e
                cofactor = cofactor * powers[j, e]
        return Polynomial._packed(chart, terms) * cofactor

    total = dict(lifted(plain, 1, [0] * len(pieces)).terms) if plain else {}
    for (s, exponents), terms in groups.items():
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            for k, c in lifted(terms, s, exponents).terms.items():
                total[k] = total.get(k, 0) + c
    num = Polynomial._packed(chart, {k: c for k, c in total.items() if c})
    if not num.terms:
        return chart.zero()
    kept, entries = [], []
    for j, (p, irreducible, exponents) in enumerate(pieces):
        at_top = [index for e, index in reach[j] if e == top[j]]
        if len(at_top) == 1:
            index = at_top[0]
            a, b, _ = live[index]
            if (exponents[2 * index] or a.num.is_constant()) \
                    and (exponents[2 * index + 1] or b.num.is_constant()):
                kept.append((p, top[j], irreducible))
                continue
        entries.append((p, top[j], irreducible))
    num, scale, bases = _cancel_all(num, scale, entries)
    return _make(num, scale, kept + bases)


class PointQ:
    """A point of a chart with exact rational coordinates.

    A coordinate is given as a rational (an ``int``, a ``Fraction`` or
    anything ``Fraction`` accepts) or as an integer pair (n, d), d != 0, for
    n/d.  The point keeps each as a reduced pair with d > 0 (``pairs``),
    which rendering, equality and hashing read; ``coordinates`` builds their
    ``Fraction``s on first read.

    For integer evaluation the point keeps its common denominator B, the
    integers A_i = B * (coordinate i), power tables [1, a, a^2, ...] of each
    A_i and of B, grown on demand, and the value A^e of each monomial key it
    has evaluated, computed on first use and kept for the point's lifetime.
    """

    __slots__ = ("chart", "pairs", "_coordinates", "_powers", "_scale_powers",
                 "_monomials")

    def __init__(self, chart, coordinates):
        pairs = tuple(_reduced_pair(c) for c in coordinates)
        if len(pairs) != chart.dimension:
            raise ValueError(
                f"expected {chart.dimension} coordinates, got {len(pairs)}")
        self.chart = chart
        self.pairs = pairs
        self._coordinates = None
        scale = lcm(*(d for _, d in pairs))
        self._powers = tuple([1, n * (scale // d)] for n, d in pairs)
        self._scale_powers = [1, scale]
        self._monomials = {}

    @property
    def coordinates(self):
        """The coordinates as ``Fraction``s, built on first read."""
        if self._coordinates is None:
            self._coordinates = tuple(Fraction(n, d) for n, d in self.pairs)
        return self._coordinates

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
        return "(" + ", ".join(_render_pair(n, d) for n, d in self.pairs) + ")"

    def __eq__(self, other):
        if not isinstance(other, PointQ):
            return NotImplemented
        return self.chart == other.chart and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.chart, self.pairs))

    def __repr__(self):
        return f"PointQ{self.render()}"


def _power(table, k):
    """``table[k]`` of a power table [1, a, a^2, ...], grown as needed."""
    while len(table) <= k:
        table.append(table[-1] * table[1])
    return table[k]


def _reduced_pair(c):
    """(n, d), d > 0 and coprime to n, of a rational or an integer pair."""
    if type(c) is not tuple:
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return c.numerator, c.denominator
    n, d = c
    if not d:
        raise ZeroDivisionError(f"coordinate {n}/0")
    g = _igcd(n, d)
    if d < 0:
        g = -g
    return (n // g, d // g) if g != 1 else c


def _render_pair(n, d):
    """Text of the reduced fraction n/d, d > 0."""
    if d == 1:
        return int_to_decimal(n)
    return f"{int_to_decimal(n)}/{int_to_decimal(d)}"


def _render_fraction(q):
    """Text of a rational ``q``, an ``int`` or a ``Fraction``."""
    return _render_pair(q.numerator, q.denominator)


# CPython checks int <-> decimal text conversions only past 640 digits (the
# limit, 4300 digits by default, may be set no lower); parts stay below that.
_DIRECT_DIGITS = 600
_DIRECT_BITS = 3 * _DIRECT_DIGITS  # 2^1800 has 542 digits


def int_to_decimal(n):
    """``str(n)`` for an integer of any size, in subquadratic time.

    Parts of at most 1800 bits convert directly.  Larger ones are split at
    a power of two and joined as ``high * 2^w + low`` in exact ``decimal``
    arithmetic, whose products of large operands are fast; no step divides
    by a power of ten.
    """
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    powers = {}  # 2^w for each split width w

    def convert(m, width):
        if width <= _DIRECT_BITS:
            return Decimal(m)
        w = width >> 1
        if w not in powers:
            powers[w] = Decimal(2) ** w
        high = m >> w
        return convert(high, width - w) * powers[w] + convert(m - (high << w), w)

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.traps[Inexact] = True
        return str(convert(n, n.bit_length()))


def decimal_to_int(digits):
    """``int(digits)`` for a string of decimal digits of any length."""
    if len(digits) <= _DIRECT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return decimal_to_int(digits[:-k]) * 10 ** k + decimal_to_int(digits[-k:])
