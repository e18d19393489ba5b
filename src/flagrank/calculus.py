"""Vector fields, one-forms, and exact Lie-bracket calculus on a chart.

``VectorField.apply(f)`` sums c_i * d_i f over the partials of f only, and
each ``RatFunc`` computes its partials once per object, so a coefficient
that many brackets share is differentiated once.  ``apply``, each
coefficient of ``lie_bracket`` and ``pairing`` are each one call of
``algebra.sum_of_products``: the products are summed over a common
denominator and reduced once, with no intermediate ``RatFunc``.
"""

from __future__ import annotations

from .algebra import RatFunc, sum_of_products
from .errors import ChartMismatch


class _Covariant:
    # values are immutable, so the hash is computed once, on first use
    __slots__ = ("chart", "coefficients", "_hash")

    atom = None  # format of the coordinate basis element, e.g. "@{}"

    def __init__(self, chart, coefficients):
        coefficients = tuple(
            c if isinstance(c, RatFunc) else RatFunc.constant(chart, c)
            for c in coefficients)
        if len(coefficients) != chart.dimension:
            raise ValueError(
                f"expected {chart.dimension} coefficients, got {len(coefficients)}")
        for c in coefficients:
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatch("coefficient chart differs from carrier chart")
        self.chart = chart
        self.coefficients = coefficients
        self._hash = None

    def is_zero(self):
        return all(c.is_zero() for c in self.coefficients)

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.coefficients]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.chart == other.chart and self.coefficients == other.coefficients

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.chart, self.coefficients))
        return self._hash

    def _combine(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.chart != self.chart:
            raise ChartMismatch("operands live on different charts")
        return type(self)(self.chart,
                          [a + sign * b for a, b in
                           zip(self.coefficients, other.coefficients)])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.chart, [-c for c in self.coefficients])

    def render(self):
        parts = [f"({c.render()})*{self.atom.format(var)}"
                 for c, var in zip(self.coefficients, self.chart.variables)
                 if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"

    def scale(self, factor):
        factor = RatFunc.constant(self.chart, factor)
        return type(self)(self.chart, [factor * c for c in self.coefficients])

    def __rmul__(self, factor):
        return self.scale(factor)


class VectorField(_Covariant):
    """First-order differential operator with rational-function coefficients."""

    atom = "@{}"

    def apply(self, f):
        """Directional derivative of a scalar function."""
        if f.chart != self.chart:
            raise ChartMismatch("function and field live on different charts")
        return sum_of_products(self.chart, self._derivative_terms(f, 1))

    def _derivative_terms(self, f, sign):
        """The (c_i, d_i f, sign) triples of ``apply(f)``."""
        coefficients = self.coefficients
        return [(c, d, sign) for i, d in f.partials().items()
                if (c := coefficients[i]).num.terms]


class OneForm(_Covariant):
    atom = "d({})"


def coordinate_field(chart, var):
    i = chart.index(var)
    coeffs = [chart.const(1 if j == i else 0) for j in range(chart.dimension)]
    return VectorField(chart, coeffs)


def coordinate_form(chart, var):
    i = chart.index(var)
    coeffs = [chart.const(1 if j == i else 0) for j in range(chart.dimension)]
    return OneForm(chart, coeffs)


def lie_bracket(x, y):
    """[X,Y]^i = sum_j X^j d_j Y^i - Y^j d_j X^i, computed exactly."""
    if not isinstance(x, VectorField) or not isinstance(y, VectorField):
        raise TypeError("lie_bracket needs two vector fields")
    if x.chart != y.chart:
        raise ChartMismatch("bracket of fields on different charts")
    coeffs = [sum_of_products(x.chart, x._derivative_terms(cy, 1)
                              + y._derivative_terms(cx, -1))
              for cx, cy in zip(x.coefficients, y.coefficients)]
    return VectorField(x.chart, coeffs)


def pairing(form, field):
    """Natural pairing <w, X> = sum_i w_i X^i."""
    if form.chart != field.chart:
        raise ChartMismatch("pairing across charts")
    return sum_of_products(form.chart, [(a, b, 1) for a, b in
                                        zip(form.coefficients, field.coefficients)])
