"""Bundled coordinate models with their expected classification outcomes.

Every builtin is defined by model-language source text and built by
``dsl.load_model`` as it reads that text, so ``models emit`` output and the
analyzed object can never drift apart.  The two PDE families take an
arbitrary rational parameter function; their classification outcome is
independent of it.  ``eq3_source``/``eq4_source`` give a member's text, and
``model_eq3``/``model_eq4`` build the same member from values, with no text
in between: one helper per family computes the coefficient that both the
text and the value carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Chart, RatFunc
from .calculus import OneForm, VectorField, coordinate_field
from .distribution import Distribution, annihilator_frame, bracket_span, span_reduce
from .dsl import ModelSource, load_model, parse_scalar
from .errors import BadParameterSupport, LiftPreconditionFailed, UnknownModel

EQ_CHART_VARIABLES = ("u1", "u2", "u3", "x", "y", "z")

_P3 = Chart("P3", ("x", "u1", "u2", "z"))
_P4 = Chart("P4", ("x", "u1", "u2", "z", "w"))


def eq3_parameter_chart():
    """Chart carrying admissible parameter functions F(x, u1, u2, z)."""
    return _P3


def eq4_parameter_chart():
    """Chart carrying admissible parameter functions F(x, u1, u2, z, w).

    The last slot receives the composite argument u3 + y*z on substitution.
    """
    return _P4


def _coerce_parameter(f, chart, what):
    if f is None:
        return chart.const(0)
    if isinstance(f, str):
        return parse_scalar(chart, f)
    if isinstance(f, RatFunc):
        if f.chart != chart:
            raise BadParameterSupport(
                f"{what} must live on chart {chart.name!r} "
                f"with variables {chart.variables}")
        return f
    return chart.const(f)


_PDE = Chart("PDE", EQ_CHART_VARIABLES)


def _eq_source(third_form_coeff_x, tasks=("branch",)):
    """Common source layout for the two PDE families; zero dx-terms are omitted."""
    w3 = "d(u3)"
    if not third_form_coeff_x.is_zero():
        w3 += f" + ({third_form_coeff_x.render()})*d(x)"
    w3 += " + (z)*d(y)"
    lines = [
        "chart PDE(u1, u2, u3, x, y, z)",
        "form w1 = d(u1) - (u2)*d(x)",
        "form w2 = d(u2) - (z)*d(x)",
        f"form w3 = {w3}",
        "dist D = ann(w1, w2, w3)",
    ]
    lines += [f"task {t} D" for t in tasks]
    return "\n".join(lines) + "\n"


def _eq_distribution(third_form_coeff_x):
    """``ann(w1, w2, w3)`` of ``_eq_source``'s forms, built from values."""
    zero, one = _PDE.zero(), _PDE.one()
    u2, z = _PDE.var("u2"), _PDE.var("z")
    # coefficients in chart order (u1, u2, u3, x, y, z)
    forms = [OneForm(_PDE, [one, zero, zero, -u2, zero, zero]),
             OneForm(_PDE, [zero, one, zero, -z, zero, zero]),
             OneForm(_PDE, [zero, zero, one, third_form_coeff_x, z, zero])]
    return annihilator_frame(forms)


def _eq3_coefficient(parameter):
    """The d(x)-coefficient F*y of eq3's third form, on the PDE chart."""
    f = _coerce_parameter(parameter, _P3, "eq3 parameter")
    return f.substitute(_PDE, {}) * _PDE.var("y")


def _eq4_coefficient(parameter):
    """The d(x)-coefficient y*u3 + y^2*z - F(x, u1, u2, z, u3 + y*z) of eq4's
    third form, on the PDE chart."""
    f = _coerce_parameter(parameter, _P4, "eq4 parameter")
    y, z, u3 = _PDE.var("y"), _PDE.var("z"), _PDE.var("u3")
    f_model = f.substitute(_PDE, {"w": u3 + y * z})
    return -(f_model - y * u3 - y * y * z)


def eq3_source(parameter=None):
    """PDE-family model with integrable reduced plane; parameter in (x,u1,u2,z)."""
    return _eq_source(_eq3_coefficient(parameter))


def eq4_source(parameter=None):
    """PDE-family model with non-integrable reduced plane; fifth slot is u3 + y*z."""
    return _eq_source(_eq4_coefficient(parameter))


_J21_SOURCE = """\
# Mixed jet-space model: two derivatives of one unknown, one of the other.
chart J21(t, u, v, u1, u2, v1)
form w1 = d(u) - u1*d(t)
form w2 = d(u1) - u2*d(t)
form w3 = d(v) - v1*d(t)
dist D = ann(w1, w2, w3)
task branch D
"""

_G1_FLAT_SOURCE = """\
# Flat model whose symbol has d = 1, encoded on a second-order jet chart.
chart JET(x, y, u, ux, uxx, v)
field DX = @x + ux*@u + uxx*@ux
field DY = @y + (uxx^2/2)*@u + uxx*@v
field V = @uxx
dist D = span(DX, DY, V)
task branch D
"""

_ELLIPTIC_SOURCE = """\
# Definite-form demonstration model.
chart FR(x1, x2, y, y1, y2, z)
field X1 = @x1
field X2 = @x2
field Y = @y + x1*@y1 + x2*@y2 + ((x1^2 + x2^2)/2)*@z
dist D = span(X1, X2, Y)
task growth D
task classify D
task scan D
"""

_HYPERBOLIC_SOURCE = """\
# Indefinite-form demonstration model.
chart FR(x1, x2, y, y1, y2, z)
field X1 = @x1
field X2 = @x2
field Y = @y + x1*@y1 + x2*@y2 + ((x1^2 - x2^2)/2)*@z
dist D = span(X1, X2, Y)
task growth D
task classify D
task scan D
"""


@dataclass(frozen=True)
class ModelSpec:
    """A named builtin model: source text plus the report it must reproduce."""

    name: str
    title: str
    source: str
    expected: dict

    def model(self):
        return load_model(ModelSource(self.source, f"<builtin:{self.name}>"))

    def distribution(self):
        return self.model().primary_dist()[1]


_NONDEG_G0_INTEGRABLE = {
    "growth": "(3,5,6)",
    "point_class": "parabolic-nondegenerate",
    "symbol_class": "g0",
    "b2_integrable": True,
    "verdict": "Theorem3",
}

_NONDEG_G0_NONINTEGRABLE = {
    "growth": "(3,5,6)",
    "point_class": "parabolic-nondegenerate",
    "symbol_class": "g0",
    "b2_integrable": False,
    "verdict": "Theorem2",
    "equation_type": True,
}

_CATALOG = (
    ModelSpec(
        name="j21",
        title="mixed jet-space model (degenerate parabolic representative)",
        source=_J21_SOURCE,
        expected={"growth": "(3,5,6)", "point_class": "parabolic-degenerate",
                  "verdict": "Theorem1"},
    ),
    ModelSpec(
        name="eq5",
        title="flat PDE model with symbol g0 (integrable reduced plane)",
        source=eq3_source(None),
        expected=dict(_NONDEG_G0_INTEGRABLE),
    ),
    ModelSpec(
        name="eq3_u2",
        title="PDE-family model with parameter u2 (integrable reduced plane)",
        source=eq3_source("u2"),
        expected=dict(_NONDEG_G0_INTEGRABLE),
    ),
    ModelSpec(
        name="eq6",
        title="fourth-order-equation PDE model (non-integrable reduced plane)",
        source=eq4_source(None),
        expected=dict(_NONDEG_G0_NONINTEGRABLE),
    ),
    ModelSpec(
        name="eq4_z",
        title="PDE-family model with parameter z (non-integrable reduced plane)",
        source=eq4_source("z"),
        expected=dict(_NONDEG_G0_NONINTEGRABLE),
    ),
    ModelSpec(
        name="g1_flat",
        title="flat model with symbol g1 (open branch)",
        source=_G1_FLAT_SOURCE,
        expected={"growth": "(3,5,6)",
                  "point_class": "parabolic-nondegenerate",
                  "symbol_class": "g1", "b2_integrable": True,
                  "verdict": "OpenBranch"},
    ),
    ModelSpec(
        name="elliptic",
        title="elliptic demonstration model",
        source=_ELLIPTIC_SOURCE,
        expected={"growth": "(3,5,6)", "point_class": "elliptic"},
    ),
    ModelSpec(
        name="hyperbolic",
        title="hyperbolic demonstration model",
        source=_HYPERBOLIC_SOURCE,
        expected={"growth": "(3,5,6)", "point_class": "hyperbolic"},
    ),
)


def catalog_list():
    """Stable list of builtin models with their expected reports."""
    return _CATALOG


def get_model(name):
    for spec in _CATALOG:
        if spec.name == name:
            return spec
    raise UnknownModel(f"no builtin model named {name!r}")


def model_eq3(parameter=None):
    """The distribution of ``eq3_source(parameter)``, built from values."""
    return _eq_distribution(_eq3_coefficient(parameter))


def model_eq4(parameter=None):
    """The distribution of ``eq4_source(parameter)``, built from values."""
    return _eq_distribution(_eq4_coefficient(parameter))


def _fresh_variable(chart, base="s"):
    if base not in chart._index:
        return base
    k = 1
    while f"{base}{k}" in chart._index:
        k += 1
    return f"{base}{k}"


def lift_pair(x, y, z):
    """Lift a rank-1 / rank-3 pair on a five-chart to a rank-3 span upstairs.

    ``x`` spans the line, (x, y, z) frames the rank-3 member.  The pair must
    satisfy: bracketing the line into the rank-3 span yields rank 4, and
    bracketing it once more fills the tangent space.  The result lives on the
    chart extended by a projective fiber coordinate and is spanned by the
    fiber direction, x, and z + s*y.
    """
    chart = x.chart
    if chart != y.chart or chart != z.chart:
        raise LiftPreconditionFailed("pair fields live on different charts")
    if chart.dimension != 5:
        raise LiftPreconditionFailed("the reduced pair must live on a five-chart")
    triple = [x, y, z]
    if len(span_reduce(triple)) != 3:
        raise LiftPreconditionFailed("(x, y, z) are generically dependent")
    line = [x]
    b4 = span_reduce(bracket_span(line, triple))
    failures = []
    if len(b4) != 4:
        failures.append(f"rank of [line, span] is {len(b4)}, expected 4")
    full = span_reduce(bracket_span(line, b4))
    if len(full) != 5:
        failures.append(f"rank of the second bracket step is {len(full)}, expected 5")
    if failures:
        raise LiftPreconditionFailed("; ".join(failures))
    fiber = _fresh_variable(chart)
    lifted_chart = Chart(f"{chart.name}_{fiber}", chart.variables + (fiber,))

    def lift_field(f):
        coeffs = [c.substitute(lifted_chart, {}) for c in f.coefficients]
        coeffs.append(lifted_chart.const(0))
        return VectorField(lifted_chart, coeffs)

    s = lifted_chart.var(fiber)
    frame = (
        coordinate_field(lifted_chart, fiber),
        lift_field(x),
        lift_field(z) + lift_field(y).scale(s),
    )
    return Distribution(lifted_chart, frame)
