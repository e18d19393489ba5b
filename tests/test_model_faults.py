"""Faulty model text: where each fault is reported, and that none crashes."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import Chart, catalog_list, load_model, parse_scalar
from flagrank.cli import _exit_code_for
from flagrank.dsl import RESERVED, TASK_NAMES, Model, ModelSource
from flagrank.errors import ArityError, DegenerateFrame, DuplicateName, \
    FlagrankError, InconsistentChart, ModelSyntaxError, TypeMismatch, \
    UnknownIdentifier

# Each text holds one fault; the reported (type, line, column) is pinned.
MODEL_FAULTS = [
    ("chart M(x, y\nfield X = @x\n", ModelSyntaxError, 1, 13),
    ("chart M(x, y)\nfield X = @x +\n", ModelSyntaxError, 2, 15),
    ("chart M(x, y)\nfield X @x\n", ModelSyntaxError, 2, 9),
    ("chart M(x, y)\nfield X = @x $ @y\n", ModelSyntaxError, 2, 14),
    ("chart M(x, y)\nfield X = @x @y\n", ModelSyntaxError, 2, 14),
    ("chart M(x, y)\nfield span = @x\n", ModelSyntaxError, 2, 7),
    ("chart M(x, y)\nfeld X = @x\n", ModelSyntaxError, 2, 1),
    ("chart M(x, y)\nfield X = @x\ndist D = sum(X)\n", ModelSyntaxError, 3, 10),
    ("chart M(x, y)\npoint p = (1/0, 2)\n", ModelSyntaxError, 2, 14),
    ("chart M(x, y)\nfield X = x^2147483648*@x\n", ModelSyntaxError, 2, 13),
    ("chart M(x, y)\nfield X = @x + q*@y\n", UnknownIdentifier, 2, 16),
    ("chart M(x, y)\nfield X = @q\n", UnknownIdentifier, 2, 11),
    ("chart M(x, y)\nform w = d(q)\n", UnknownIdentifier, 2, 10),
    ("chart M(x, y)\nfield X = @x\ndist D = span(X, Y)\n", UnknownIdentifier, 3, 1),
    ("chart M(x, y)\nform w = d(x)\ndist D = ann(v)\n", UnknownIdentifier, 3, 1),
    ("chart M(x, y)\nfield X = @x\ndist D = span(X)\ntask growth E\n",
     UnknownIdentifier, 4, 6),
    ("chart M(x, y)\ntask frobnicate\n", UnknownIdentifier, 2, 6),
    ("chart M(x, y)\nfield X = @x\ntask lift X X Z\n", UnknownIdentifier, 3, 6),
    ("chart M(x, y)\nfield W = X + @y\nfield X = @x\n", UnknownIdentifier, 2, 11),
    ("chart M(x, y)\npoint p = (1, 2, 3)\n", ArityError, 2, 1),
    ("chart M(x, y)\nfield X = @x\ntask lift X\n", ArityError, 3, 6),
    ("chart M(x, y)\nfield X = @x\ndist D = span(X)\ntask growth D D\n",
     ArityError, 4, 6),
    ("chart M(x, y)\nfield X = @x + x\n", TypeMismatch, 2, 14),
    ("chart M(x, y)\nfield X = @x - d(y)\n", TypeMismatch, 2, 14),
    ("chart M(x, y)\nfield X = @x * @y\n", TypeMismatch, 2, 14),
    ("chart M(x, y)\nfield X = x / @y\n", TypeMismatch, 2, 13),
    ("chart M(x, y)\nfield X = @x / (y - y)\n", TypeMismatch, 2, 14),
    ("chart M(x, y)\nfield X = (@x)^2\n", TypeMismatch, 2, 15),
    ("chart M(x, y)\nfield X = (y - y)^-1*@x\n", TypeMismatch, 2, 18),
    ("chart M(x, y)\nfield X = x*y\n", TypeMismatch, 2, 1),
    ("chart M(x, y)\nform w = @x\n", TypeMismatch, 2, 1),
    ("chart M(x, y)\nfield X = @x\nform X = d(y)\n", DuplicateName, 3, 1),
    ("chart M(x, y)\nfield x = @x\n", DuplicateName, 2, 1),
    ("chart M(x, y)\npoint p = (1, 2)\npoint p = (0, 0)\n", DuplicateName, 3, 1),
    ("chart M(x, y)\nchart N(z, w)\n", InconsistentChart, 2, 1),
    ("field X = @x\nchart M(x, y)\n", InconsistentChart, 1, 1),
    ("task growth\n", InconsistentChart, 1, 6),
    ("# only a comment\n", InconsistentChart, 1, 1),
    ("chart M(x, y)\nfield A = @x\nfield B = @x\ndist D = span(A, B)\n",
     DegenerateFrame, 4, 1),
    ("chart M(x, y, z)\nform w1 = d(x)\nform w2 = 2*d(x)\ndist D = ann(w1, w2)\n",
     DegenerateFrame, 4, 1),
]

SCALAR_FAULTS = [
    ("x + )", ModelSyntaxError, 1, 5),
    ("x y", ModelSyntaxError, 1, 3),
    ("x^-2147483648", ModelSyntaxError, 1, 4),
    ("x + q", UnknownIdentifier, 1, 5),
    ("@x", TypeMismatch, 1, 1),
    ("(x*d(y))", TypeMismatch, 1, 1),
    ("x / (y - y)", TypeMismatch, 1, 3),
    ("x / (y - y)^2", TypeMismatch, 1, 3),
    ("x / (y - y)^-1", TypeMismatch, 1, 12),
    ("x / -@y", TypeMismatch, 1, 3),
    ("x / @y^2", TypeMismatch, 1, 7),
]


@pytest.mark.parametrize("text, error, line, col", MODEL_FAULTS)
def test_model_fault_position(text, error, line, col):
    with pytest.raises(error) as err:
        load_model(ModelSource(text, "m.dist"))
    assert type(err.value) is error
    assert (err.value.origin, err.value.line, err.value.col) == ("m.dist", line, col)


@pytest.mark.parametrize("text, error, line, col", SCALAR_FAULTS)
def test_scalar_fault_position(text, error, line, col):
    with pytest.raises(error) as err:
        parse_scalar(Chart("M", ("x", "y")), text)
    assert type(err.value) is error
    assert (err.value.line, err.value.col) == (line, col)


_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|\S")
_INSERTS = sorted(RESERVED) + list(TASK_NAMES) + [
    "@", "(", ")", ",", "=", "+", "-", "*", "/", "^", "#",
    "0", "1", "2", "x", "u1", "z", "w1", "D", "X", "q"]
_SOURCES = [spec.source for spec in catalog_list()]


@st.composite
def _mutated_source(draw):
    """A builtin source with tokens and lines deleted, inserted, replaced or swapped."""
    source = draw(st.sampled_from(_SOURCES))
    lines = [_TOKEN.findall(line) for line in source.split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        op = draw(st.sampled_from(("delete", "insert", "replace", "swap",
                                   "delete line", "swap lines", "copy line")))
        if op in ("delete", "replace") and line:
            i = draw(st.integers(0, len(line) - 1))
            del line[i]
        elif op in ("insert", "replace"):
            i = draw(st.integers(0, len(line)))
        if op in ("insert", "replace"):
            token = draw(st.sampled_from(_INSERTS))
            # no digits after "^": 2^214748364 is a size limit, not a fault
            if token.isdecimal() and "^" in line[max(0, i - 2):i]:
                token = "x"
            line.insert(i, token)
        elif op == "swap" and len(line) > 1:
            i = draw(st.integers(0, len(line) - 1))
            j = draw(st.integers(0, len(line) - 1))
            line[i], line[j] = line[j], line[i]
        elif op == "delete line" and len(lines) > 1:
            del lines[k]
        elif op == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), list(line))
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=400, deadline=None)
@given(_mutated_source())
def test_mutated_builtin_text_is_a_model_or_a_bad_input_error(text):
    try:
        model = load_model(ModelSource(text, "<mutated>"))
    except FlagrankError as exc:
        assert _exit_code_for(exc) in (2, 3), exc
    else:
        assert isinstance(model, Model)
