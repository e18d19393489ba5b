"""Vector fields, one-forms, and exact Lie-bracket calculus on a chart.

``VectorField.apply(f)`` sums c_i * d_i f over the partials of f only, and
each ``RatFunc`` computes its partials once per object, so a coefficient
that many brackets share is differentiated once.
"""

from __future__ import annotations

from .algebra import RatFunc
from .errors import ChartMismatch


class _Covariant:
    __slots__ = ("chart", "coefficients")

    atom = None  # format of the coordinate basis element, e.g. "@{}"

    def __init__(self, chart, coefficients):
        coefficients = tuple(
            c if isinstance(c, RatFunc) else RatFunc.constant(chart, c)
            for c in coefficients)
        if len(coefficients) != chart.dimension:
            raise ValueError(
                f"expected {chart.dimension} coefficients, got {len(coefficients)}")
        for c in coefficients:
            if c.chart != chart:
                raise ChartMismatch("coefficient chart differs from carrier chart")
        self.chart = chart
        self.coefficients = coefficients

    def is_zero(self):
        return all(c.is_zero() for c in self.coefficients)

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.coefficients]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.chart == other.chart and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.coefficients))

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
        out = self.chart.zero()
        coefficients = self.coefficients
        for i, d in f.partials().items():
            c = coefficients[i]
            if not c.is_zero():
                out = out + c * d
        return out


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
    coeffs = [x.apply(cy) - y.apply(cx)
              for cx, cy in zip(x.coefficients, y.coefficients)]
    return VectorField(x.chart, coeffs)


def pairing(form, field):
    """Natural pairing <w, X> = sum_i w_i X^i."""
    if form.chart != field.chart:
        raise ChartMismatch("pairing across charts")
    out = form.chart.zero()
    for a, b in zip(form.coefficients, field.coefficients):
        out = out + a * b
    return out
