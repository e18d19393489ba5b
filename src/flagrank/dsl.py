"""Model-definition language: charts, fields, forms, distributions, tasks.

One statement per line, ``#`` comments.  ``@var`` is a coordinate vector
field, ``d(var)`` a coordinate differential; expressions combine rationals,
chart variables, ``+ - * /`` and integer ``^`` powers (below 2^31 in
magnitude; a negative power of zero is a ``TypeMismatch``, like a division
by zero).  Distributions are
declared as ``span(...)`` of fields or ``ann(...)`` of one-forms; the latter
is realized by an exact kernel computation.

The text is read in one pass.  Each expression is evaluated as it is read
and each statement takes effect as soon as it is read, so a name must be
declared before it is used.  When a text has several faults, the first one
in reading order is reported; only a character that no token can start is
found before everything else, because the text is split into tokens first.
Every error carries the origin plus line and column.

Grammar sketch::

    model   := { line }
    line    := chart | field | form | dist | point | task
    chart   := "chart" IDENT "(" IDENT { "," IDENT } ")"
    field   := "field" IDENT "=" expr
    form    := "form" IDENT "=" expr
    dist    := "dist" IDENT "=" ("span" | "ann") "(" IDENT { "," IDENT } ")"
    point   := "point" IDENT "=" "(" rat { "," rat } ")"
    task    := "task" IDENT { IDENT }
    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := [ "-" | "+" ] power
    power   := atom [ "^" [ "-" ] INT ]
    atom    := INT | IDENT | "@" IDENT | "d" "(" IDENT ")" | "(" expr ")"
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import DEGREE_BOUND, Chart, PointQ, RatFunc, decimal_to_int, \
    int_to_decimal
from .calculus import OneForm, VectorField, coordinate_field, coordinate_form
from .distribution import Distribution, annihilator_frame
from .errors import ArityError, DegenerateFrame, DependentForms, DuplicateName, \
    InconsistentChart, ModelSyntaxError, TypeMismatch, UnknownIdentifier

RESERVED = {"chart", "field", "form", "dist", "point", "task", "span", "ann", "d"}

TASK_NAMES = ("growth", "classify", "scan", "flag", "symbol", "branch", "lift")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text, origin):
    tokens = []
    line_no = 1
    for raw_line in text.split("\n"):
        line = raw_line.split("#", 1)[0]
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            col = i + 1
            if ch in " \t\r":
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < n and line[j].isdecimal():
                    j += 1
                tokens.append(Token("number", line[i:j], line_no, col))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(Token("ident", line[i:j], line_no, col))
                i = j
                continue
            if ch in "+-*/^(),=@":
                tokens.append(Token(ch, ch, line_no, col))
                i += 1
                continue
            raise ModelSyntaxError(f"unexpected character {ch!r}", origin, line_no, col)
        if tokens and tokens[-1].kind != "newline":
            tokens.append(Token("newline", "", line_no, len(line) + 1))
        line_no += 1
    tokens.append(Token("eof", "", line_no, 1))
    return tokens


@dataclass(frozen=True)
class ModelSource:
    text: str
    origin: str = "<stdin>"


@dataclass
class Model:
    """A read model: one chart plus named geometric objects and tasks."""

    origin: str
    chart: Chart
    fields: dict
    forms: dict
    dists: dict
    points: dict
    tasks: list
    dist_defs: dict
    order: list

    def primary_dist(self):
        for kind, name in self.order:
            if kind == "dist":
                return name, self.dists[name]
        return None, None

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (self.chart == other.chart and self.fields == other.fields
                and self.forms == other.forms
                and {k: d.frame for k, d in self.dists.items()}
                == {k: d.frame for k, d in other.dists.items()}
                and self.points == other.points and self.tasks == other.tasks
                and self.dist_defs == other.dist_defs and self.order == other.order)


class _Reader:
    """Reads model text token by token and builds each value as it is read."""

    def __init__(self, text, origin, chart=None):
        self.tokens = _tokenize(text, origin)
        self.pos = 0
        self.origin = origin
        self.chart = chart
        self.fields = {}
        self.forms = {}
        self.dists = {}
        self.points = {}
        self.tasks = []
        self.dist_defs = {}
        self.order = []

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, cls, message, tok):
        raise cls(message, self.origin, tok.line, tok.col)

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            self.fail(ModelSyntaxError,
                      f"expected {what or kind}, found {tok.text or tok.kind!r}", tok)
        return tok

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def items(self, read):
        """``"(" item { "," item } ")"``, yielding each item as it is read."""
        self.expect("(")
        yield read()
        while self.peek().kind == ",":
            self.next()
            yield read()
        self.expect(")")

    def read_name(self, role):
        tok = self.expect("ident", f"{role} name")
        if tok.text in RESERVED:
            self.fail(ModelSyntaxError, f"{tok.text!r} is reserved", tok)
        return tok

    # statements

    def read_model(self):
        statements = {"chart": self.read_chart, "field": self.read_value,
                      "form": self.read_value, "dist": self.read_dist,
                      "point": self.read_point, "task": self.read_task}
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident":
                self.fail(ModelSyntaxError,
                          f"expected a declaration keyword, found {tok.text!r}", tok)
            if tok.text not in statements:
                self.fail(ModelSyntaxError, f"unknown declaration {tok.text!r}", tok)
            statements[tok.text](self.next())
            tok = self.peek()
            if tok.kind not in ("newline", "eof"):
                self.fail(ModelSyntaxError,
                          f"unexpected {tok.text!r} after statement", tok)
        if self.chart is None:
            raise InconsistentChart("model declares no chart", self.origin, 1, 1)
        return Model(self.origin, self.chart, self.fields, self.forms,
                     self.dists, self.points, self.tasks, self.dist_defs,
                     self.order)

    def need_chart(self, tok):
        if self.chart is None:
            self.fail(InconsistentChart, "no chart declared yet", tok)

    def declare(self, kw):
        """The new name a ``field``/``form``/``dist``/``point`` statement binds."""
        self.need_chart(kw)
        name = self.read_name(kw.text).text
        if name in self.chart._index:
            self.fail(DuplicateName, f"{name!r} is already a chart variable", kw)
        for table in (self.fields, self.forms, self.dists, self.points):
            if name in table:
                self.fail(DuplicateName, f"{name!r} is already declared", kw)
        self.expect("=")
        return name

    def read_chart(self, kw):
        if self.chart is not None:
            self.fail(InconsistentChart, "model already has a chart", kw)
        name = self.read_name("chart").text
        variables = []
        for var in self.items(lambda: self.read_name("variable")):
            if var.text in variables:
                self.fail(DuplicateName, f"variable {var.text!r} is repeated in "
                          f"chart {name!r}", var)
            variables.append(var.text)
        self.chart = Chart(name, variables)

    def read_value(self, kw):
        name = self.declare(kw)
        value = self.read_expr()
        cls, table, what = ((VectorField, self.fields, "a vector") if kw.text == "field"
                            else (OneForm, self.forms, "a one-form"))
        if not isinstance(value, cls):
            self.fail(TypeMismatch, f"{kw.text} declaration needs {what} expression", kw)
        table[name] = value
        self.order.append((kw.text, name))

    def read_dist(self, kw):
        name = self.declare(kw)
        tok = self.expect("ident", "'span' or 'ann'")
        mode = tok.text
        if mode not in ("span", "ann"):
            self.fail(ModelSyntaxError, f"expected 'span' or 'ann', found {mode!r}", tok)
        what, table = ("field", self.fields) if mode == "span" else ("form", self.forms)
        refs = []
        for ref in self.items(lambda: self.read_name("reference").text):
            if ref not in table:
                self.fail(UnknownIdentifier, f"unknown {what} {ref!r}", kw)
            refs.append(ref)
        members = [table[ref] for ref in refs]
        if mode == "span":
            dist = Distribution(self.chart, members)
            if dist.generic_rank != len(members):
                self.fail(DegenerateFrame,
                          f"span frame has generic rank {dist.generic_rank}, "
                          f"expected {len(members)}", kw)
        else:
            try:
                dist = annihilator_frame(members)
            except DependentForms as exc:
                self.fail(DegenerateFrame, str(exc), kw)
        self.dists[name] = dist
        self.dist_defs[name] = (mode, tuple(refs))
        self.order.append(("dist", name))

    def read_rational(self):
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        num = self.expect("number", "a rational coordinate")
        value = Fraction(sign * decimal_to_int(num.text))
        if self.peek().kind == "/":
            self.next()
            den = self.expect("number", "a denominator")
            den_value = decimal_to_int(den.text)
            if den_value == 0:
                self.fail(ModelSyntaxError, "zero denominator in coordinate", den)
            value = value / den_value
        return value

    def read_point(self, kw):
        name = self.declare(kw)
        coords = list(self.items(self.read_rational))
        if len(coords) != self.chart.dimension:
            self.fail(ArityError,
                      f"point has {len(coords)} coordinates, chart "
                      f"{self.chart.name!r} has {self.chart.dimension}", kw)
        self.points[name] = PointQ(self.chart, coords)
        self.order.append(("point", name))

    def read_task(self, kw):
        tok = self.expect("ident", "task name")
        task = tok.text
        self.need_chart(tok)
        if task not in TASK_NAMES:
            self.fail(UnknownIdentifier, f"unknown task {task!r}", tok)
        args = []
        while self.peek().kind == "ident":
            args.append(self.next().text)
        if task == "lift":
            if len(args) != 3:
                self.fail(ArityError, "task lift needs exactly three field names", tok)
            what, table = "field", self.fields
        else:
            if len(args) > 1:
                self.fail(ArityError,
                          f"task {task!r} takes at most one distribution name", tok)
            what, table = "dist", self.dists
        for ref in args:
            if ref not in table:
                self.fail(UnknownIdentifier, f"unknown {what} {ref!r}", tok)
        self.tasks.append((task, tuple(args)))
        self.order.append(("task", len(self.tasks) - 1))

    # expressions: each returns a RatFunc, a VectorField or a OneForm

    def read_expr(self):
        left = self.read_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right = self.read_term()
            if type(left) is not type(right):
                self.fail(TypeMismatch,
                          "addition needs two scalars, two fields, or two forms", op)
            left = left + right if op.kind == "+" else left - right
        return left

    def read_term(self):
        left = self.read_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            # a divisor is read as its reciprocal
            right = self.read_factor(op if op.kind == "/" else None)
            scalar_l = isinstance(left, RatFunc)
            scalar_r = isinstance(right, RatFunc)
            if scalar_l and scalar_r:
                left = left * right
            elif scalar_l:
                left = right.scale(left)
            elif scalar_r:
                left = left.scale(right)
            else:
                self.fail(TypeMismatch,
                          "cannot multiply two non-scalar expressions", op)
        return left

    def read_factor(self, division=None):
        if self.peek().kind in ("+", "-"):
            sign = self.next()
            value = self.read_factor(division)
            return -value if sign.kind == "-" else value
        return self.read_power(division)

    def read_power(self, division=None):
        """``atom [^ k]``; after the ``/`` token ``division``, its reciprocal.

        A divisor b^k is read as b^(-k), so a power of a denominator enters
        as its base b with exponent k and is never expanded and split again.
        """
        base = self.read_atom()
        exponent = 1
        if self.peek().kind == "^":
            caret = self.next()
            if not isinstance(base, RatFunc):
                self.fail(TypeMismatch, "powers apply to scalar expressions only",
                          caret)
            negative = self.peek().kind == "-"
            if negative:
                self.next()
            exp = self.expect("number", "an integer exponent")
            value = decimal_to_int(exp.text)
            if value >= DEGREE_BOUND:
                self.fail(ModelSyntaxError, f"exponent {int_to_decimal(value)} is "
                          "too large: powers stay below 2^31", exp)
            if negative and value and base.is_zero():
                self.fail(TypeMismatch, "division by the zero function", caret)
            exponent = -value if negative else value
        if division is not None:
            if not isinstance(base, RatFunc):
                self.fail(TypeMismatch, "division needs a scalar divisor", division)
            if exponent and base.is_zero():
                self.fail(TypeMismatch, "division by the zero function", division)
            exponent = -exponent
        return base if exponent == 1 else base ** exponent

    def read_variable(self, at, what):
        var = self.expect("ident", what).text
        if var not in self.chart._index:
            self.fail(UnknownIdentifier, f"unknown variable {var!r}", at)
        return var

    def read_atom(self):
        tok = self.next()
        if tok.kind == "number":
            return self.chart.const(decimal_to_int(tok.text))
        if tok.kind == "@":
            return coordinate_field(self.chart,
                                    self.read_variable(tok, "a variable after '@'"))
        if tok.kind == "(":
            value = self.read_expr()
            self.expect(")")
            return value
        if tok.kind != "ident":
            self.fail(ModelSyntaxError,
                      f"unexpected {tok.text or tok.kind!r} in expression", tok)
        name = tok.text
        if name == "d":
            self.expect("(")
            var = self.read_variable(tok, "a variable inside d(...)")
            self.expect(")")
            return coordinate_form(self.chart, var)
        if name in RESERVED:
            self.fail(ModelSyntaxError, f"{name!r} is reserved", tok)
        if name in self.chart._index:
            return self.chart.var(name)
        for table in (self.fields, self.forms):
            if name in table:
                return table[name]
        self.fail(UnknownIdentifier, f"unknown identifier {name!r}", tok)


def load_model(source):
    """Read model text, a ``str`` or a ``ModelSource``, into a ``Model``."""
    if isinstance(source, str):
        source = ModelSource(source)
    return _Reader(source.text, source.origin).read_model()


def parse_scalar(chart, text):
    """Read a scalar expression against an existing chart (testing/parameters)."""
    reader = _Reader(text, "<expr>", chart)
    value = reader.read_expr()
    reader.skip_newlines()
    tail = reader.peek()
    if tail.kind != "eof":
        reader.fail(ModelSyntaxError, f"unexpected {tail.text!r} after expression", tail)
    if not isinstance(value, RatFunc):
        raise TypeMismatch("expected a scalar expression", "<expr>", 1, 1)
    return value


def _render_covariant(value):
    """``value.render()``, but a zero field or form stays a readable ``0*@x``."""
    if value.is_zero():
        return "0*" + value.atom.format(value.chart.variables[0])
    return value.render()


def render_model(model):
    """Canonical model text; reading it back yields a structurally equal model."""
    chart = model.chart
    lines = [f"chart {chart.name}({', '.join(chart.variables)})"]
    for kind, key in model.order:
        if kind == "field":
            lines.append(f"field {key} = {_render_covariant(model.fields[key])}")
        elif kind == "form":
            lines.append(f"form {key} = {_render_covariant(model.forms[key])}")
        elif kind == "dist":
            mode, refs = model.dist_defs[key]
            lines.append(f"dist {key} = {mode}({', '.join(refs)})")
        elif kind == "point":
            lines.append(f"point {key} = {model.points[key].render()}")
        elif kind == "task":
            task, args = model.tasks[key]
            lines.append(("task " + task + " " + " ".join(args)).rstrip())
    return "\n".join(lines) + "\n"
