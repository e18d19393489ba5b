"""Model-language parsing, elaboration, and round-tripping."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagrank import Chart, algebra, catalog_list, load_model, parse_scalar, \
    render_model
from flagrank.dsl import TASK_NAMES, ModelSource
from flagrank.errors import ArityError, DegenerateFrame, DuplicateName, \
    InconsistentChart, ModelSyntaxError, TypeMismatch, UnknownIdentifier
from util import sc


def test_parse_jet_coordinate_form():
    model = load_model("""
chart M(t, u, v, u1, u2, v1)
form w1 = d(u) - u1*d(t)
""")
    w1 = model.forms["w1"]
    rendered = [c.render() for c in w1.coefficients]
    assert rendered == ["-u1", "1", "0", "0", "0", "0"]


def test_parse_field_with_coordinate_directions():
    model = load_model("""
chart M(x, u1, u2)
field X = @x + u2*@u1
""")
    assert [c.render() for c in model.fields["X"].coefficients] == ["1", "u2", "0"]


def test_annihilator_dist_has_expected_rank():
    model = load_model("""
chart M(t, u, v, u1, u2, v1)
form w1 = d(u) - u1*d(t)
form w2 = d(u1) - u2*d(t)
form w3 = d(v) - v1*d(t)
dist D = ann(w1, w2, w3)
""")
    assert model.dists["D"].generic_rank == 3


def test_degenerate_span_rejected():
    with pytest.raises(DegenerateFrame):
        load_model("""
chart M(x, y)
field A = @x
field B = @x
dist D = span(A, B)
""")


def test_dependent_annihilator_rejected():
    with pytest.raises(DegenerateFrame):
        load_model("""
chart M(x, y, z)
form w1 = d(x)
form w2 = 2*d(x)
dist D = ann(w1, w2)
""")


def test_empty_task_list_is_valid():
    model = load_model("chart M(x, y)\nfield X = @x\n")
    assert model.tasks == []


def test_comments_and_blank_lines():
    model = load_model("""
# leading comment
chart M(x, y)   # trailing comment

field X = @x    # another
""")
    assert "X" in model.fields


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as err:
        load_model(ModelSource("chart M(x\nfield X = @x\n", "m.dist"))
    assert err.value.origin == "m.dist"
    assert err.value.line == 1
    assert err.value.col >= 9


def test_unknown_identifier_position():
    with pytest.raises(UnknownIdentifier) as err:
        load_model("chart M(x, y)\nfield X = @x + w*@y\n")
    assert err.value.line == 2


def test_point_arity_error():
    with pytest.raises(ArityError):
        load_model("chart M(x, y)\npoint p = (1, 2, 3)\n")


def test_point_rational_coordinates():
    model = load_model("chart M(x, y)\npoint p = (-1/2, 3)\n")
    from fractions import Fraction
    assert model.points["p"].coordinates == (Fraction(-1, 2), Fraction(3))


def test_type_mismatch_vector_plus_scalar():
    with pytest.raises(TypeMismatch):
        load_model("chart M(x, y)\nfield X = @x + x\n")


def test_type_mismatch_field_declared_as_scalar():
    with pytest.raises(TypeMismatch):
        load_model("chart M(x, y)\nfield X = x*y\n")


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName):
        load_model("chart M(x, y)\nfield X = @x\nform X = d(y)\n")


def test_repeated_chart_variable_is_a_duplicate_name():
    with pytest.raises(DuplicateName) as err:
        load_model(ModelSource("chart M(x, x, y)\nfield X = @x\n", "m.dist"))
    assert (err.value.line, err.value.col) == (1, 12)
    assert "'x'" in err.value.message


def test_second_chart_rejected():
    with pytest.raises(InconsistentChart):
        load_model("chart M(x, y)\nchart N(z, w)\n")


def test_unknown_task_rejected():
    with pytest.raises(UnknownIdentifier):
        load_model("chart M(x, y)\nfield X = @x\ntask frobnicate\n")


def test_task_lift_arity():
    with pytest.raises(ArityError):
        load_model("chart M(x, y)\nfield X = @x\ntask lift X\n")


def test_reserved_words_rejected_as_names():
    with pytest.raises(ModelSyntaxError):
        load_model("chart span(x, y)\n")


def test_expression_powers_and_fractions():
    chart = Chart("M", ("x", "y"))
    f = parse_scalar(chart, "(x + y)^2 / (2*x)")
    assert f == (chart.var("x") + chart.var("y")) ** 2 / (chart.var("x") * 2)


def test_divisor_power_enters_as_its_base(monkeypatch):
    # the reader expanded (1 + z^2)^2 before dividing by it, and splitting
    # the expanded power again took 3 poly_gcd calls
    chart = Chart("P3", ("x", "u1", "u2", "z"))
    gcds = []
    original = algebra.poly_gcd

    def counted(f, g):
        gcds.append((f, g))
        return original(f, g)

    monkeypatch.setattr(algebra, "poly_gcd", counted)
    divided = parse_scalar(chart, "(x + u1)/(1 + z^2)^2")
    multiplied = parse_scalar(chart, "(x + u1)*(1 + z^2)^-2")
    assert gcds == []
    assert divided.render() == multiplied.render() == "(x + u1)/(z^4 + 2*z^2 + 1)"
    assert divided.bases == multiplied.bases


def test_scalar_division_by_zero_function():
    chart = Chart("M", ("x", "y"))
    with pytest.raises(TypeMismatch):
        parse_scalar(chart, "x / (y - y)")


def test_negative_power_of_zero_is_a_division_by_zero():
    source = "chart M(x, y)\nfield X = @x + {}*@y\n"
    with pytest.raises(TypeMismatch) as division:
        load_model(ModelSource(source.format("1/(y - y)"), "m.dist"))
    with pytest.raises(TypeMismatch) as power:
        load_model(ModelSource(source.format("(y - y)^-1"), "m.dist"))
    assert power.value.message == division.value.message
    # the position is the ``^``, as the division's is the ``/``
    assert (division.value.line, division.value.col) == (2, 17)
    assert (power.value.line, power.value.col) == (2, 23)
    chart = Chart("M", ("x", "y"))
    assert parse_scalar(chart, "(y - y)^0") == 1
    assert parse_scalar(chart, "(y - y)^2").is_zero()


def test_exponents_stay_below_the_degree_bound():
    chart = Chart("M", ("x", "y"))
    for text, col in (("x^2147483648", 3), ("x^-2147483648", 4), ("2^99999999999", 3)):
        with pytest.raises(ModelSyntaxError) as err:
            parse_scalar(chart, text)
        assert (err.value.line, err.value.col) == (1, col)
        assert "2^31" in err.value.message
    f = parse_scalar(chart, "x^2147483647")
    assert f.num.total_degree() == 2 ** 31 - 1


def test_round_trip_catalog_models():
    for spec in catalog_list():
        model = spec.model()
        text = render_model(model)
        again = load_model(ModelSource(text, model.origin))
        assert again == model, spec.name


def test_round_trip_points_and_tasks():
    model = load_model("""
chart M(x, y, z)
field X = @x + (x^2/2)*@z
field Y = @y
dist D = span(X, Y)
point p = (1/2, -2, 0)
task growth D
task classify D
""")
    again = load_model(ModelSource(render_model(model), "<again>"))
    assert again == model
    assert again.tasks == [("growth", ("D",)), ("classify", ("D",))]


def test_round_trip_keeps_literals_past_the_digit_limit():
    # CPython refuses int <-> text conversions past 4300 digits by default
    big = "9" * 5000
    model = load_model(f"""
chart M(x, y)
field X = @x + {big}*x^2*@y
point p = ({"3" * 4400}/{"7" * 4500}, 1)
""")
    text = render_model(model)
    assert f"{big}*x^2" in text
    again = load_model(ModelSource(text, "<again>"))
    assert again == model


def test_numbers_are_decimal_digits_only():
    # "²" is a digit to str.isdigit, but int() rejects it
    with pytest.raises(ModelSyntaxError) as err:
        parse_scalar(Chart("M", ("x", "y")), "x + \u00b2")
    assert (err.value.line, err.value.col) == (1, 5)
    assert "unexpected character" in err.value.message


def test_fields_can_reference_earlier_fields():
    model = load_model("""
chart M(x, y, z)
field X = @x
field W = X + y*@z
""")
    assert [c.render() for c in model.fields["W"].coefficients] == ["1", "0", "y"]


_VARIABLES = ("x", "y", "z", "u1", "u2", "w")


@st.composite
def _poly_text(draw, variables, nonzero=False):
    """Polynomial source text built term by term, independent of any renderer."""
    terms = draw(st.lists(
        st.tuples(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
                  st.lists(st.tuples(st.sampled_from(variables), st.integers(-1, 2)),
                           max_size=2)),
        min_size=1 if nonzero else 0, max_size=3))
    parts = []
    for coef, factors in terms:
        parts.append("*".join([f"({coef})"] + [f"{v}^{e}" for v, e in factors]))
    return " + ".join(parts) if parts else "0"


@st.composite
def _scalar_text(draw, variables):
    kind = draw(st.sampled_from(("zero", "constant", "poly", "ratio", "ratio")))
    if kind == "zero":
        return "0"
    if kind == "constant":
        return str(draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)))
    num = draw(_poly_text(variables))
    if kind == "poly":
        return num
    # a nonzero integer times a monomial never cancels to a zero denominator
    den = draw(_poly_text(variables, nonzero=True)).split(" + ")[0]
    return f"({num})/({den})"


@st.composite
def _covariant_text(draw, variables, atom, earlier):
    """Field or form text; zero coefficients and all-zero values included."""
    if draw(st.integers(0, 5)) == 0:
        return f"0*{atom.format(draw(st.sampled_from(variables)))}"
    parts = [f"({draw(_scalar_text(variables))})*{atom.format(v)}"
             for v in draw(st.lists(st.sampled_from(variables), min_size=1,
                                    max_size=3))]
    if earlier and draw(st.integers(0, 2)) == 0:
        parts.insert(0, draw(st.sampled_from(earlier)))
    return " + ".join(parts)


@st.composite
def _model_text(draw):
    dimension = draw(st.integers(2, 4))
    variables = _VARIABLES[:dimension]
    lines = [f"chart M({', '.join(variables)})"]
    fields, forms, dists = [], [], []
    for i in range(draw(st.integers(0, 4))):
        lines.append(f"field F{i} = {draw(_covariant_text(variables, '@{}', fields))}")
        fields.append(f"F{i}")
    for i in range(draw(st.integers(0, 3))):
        lines.append(f"form W{i} = {draw(_covariant_text(variables, 'd({})', forms))}")
        forms.append(f"W{i}")
    for i in range(draw(st.integers(0, 2))):
        mode, pool = draw(st.sampled_from((("span", fields), ("ann", forms))))
        if not pool:
            continue
        refs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2,
                             unique=True))
        lines.append(f"dist D{i} = {mode}({', '.join(refs)})")
        dists.append(f"D{i}")
    coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    for i in range(draw(st.integers(0, 2))):
        coords = draw(st.lists(coordinate, min_size=dimension, max_size=dimension))
        lines.append(f"point P{i} = ({', '.join(str(c) for c in coords)})")
    for _ in range(draw(st.integers(0, 3))):
        task = draw(st.sampled_from(TASK_NAMES))
        if task == "lift":
            if not fields:
                continue
            args = draw(st.lists(st.sampled_from(fields), min_size=3, max_size=3))
        else:
            args = draw(st.lists(st.sampled_from(dists), max_size=1)) if dists else []
        lines.append(" ".join(["task", task] + args))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_model_text())
def test_render_model_round_trips_generated_models(text):
    try:
        model = load_model(ModelSource(text, "<fuzz>"))
    except DegenerateFrame:
        assume(False)  # a dependent span or ann frame; the text is still valid
    rendered = render_model(model)
    again = load_model(ModelSource(rendered, "<fuzz>"))
    assert again == model
    assert render_model(again) == rendered
