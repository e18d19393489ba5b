"""Model-definition language: charts, fields, forms, distributions, tasks.

One statement per line, ``#`` comments.  ``@var`` is a coordinate vector
field, ``d(var)`` a coordinate differential; expressions combine rationals,
chart variables, ``+ - * /`` and integer ``^`` powers (below 2^31 in
magnitude; a negative power of zero is a ``TypeMismatch``, like a division
by zero).  Distributions are
declared as ``span(...)`` of fields or ``ann(...)`` of one-forms; the latter
is realized by an exact kernel computation.  Every error carries the origin
plus line and column.

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

from dataclasses import dataclass, field as dc_field
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


# --- expression AST ---

@dataclass(frozen=True)
class Num:
    value: int
    line: int
    col: int


@dataclass(frozen=True)
class Name:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class CoordField:
    var: str
    line: int
    col: int


@dataclass(frozen=True)
class CoordForm:
    var: str
    line: int
    col: int


@dataclass(frozen=True)
class Unary:
    sign: int
    operand: object
    line: int
    col: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int
    col: int


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int
    line: int
    col: int


# --- declarations ---

@dataclass(frozen=True)
class ChartDecl:
    name: str
    variables: tuple
    line: int
    col: int


@dataclass(frozen=True)
class ValueDecl:
    kind: str  # "field" | "form"
    name: str
    expr: object
    line: int
    col: int


@dataclass(frozen=True)
class DistDecl:
    name: str
    mode: str  # "span" | "ann"
    refs: tuple
    line: int
    col: int


@dataclass(frozen=True)
class PointDecl:
    name: str
    coords: tuple
    line: int
    col: int


@dataclass(frozen=True)
class TaskDecl:
    task: str
    args: tuple
    line: int
    col: int


@dataclass
class ModelAst:
    origin: str
    decls: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class ModelSource:
    text: str
    origin: str = "<stdin>"


class _Parser:
    def __init__(self, tokens, origin):
        self.tokens = tokens
        self.origin = origin
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            want = what or kind
            raise ModelSyntaxError(f"expected {want}, found {tok.text or tok.kind!r}",
                                   self.origin, tok.line, tok.col)
        return tok

    def error(self, message, tok):
        raise ModelSyntaxError(message, self.origin, tok.line, tok.col)

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def end_statement(self):
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            if tok.kind == "newline":
                self.next()
            return
        self.error(f"unexpected {tok.text!r} after statement", tok)

    def parse_model(self):
        ast = ModelAst(self.origin)
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "eof":
                return ast
            if tok.kind != "ident":
                self.error(f"expected a declaration keyword, found {tok.text!r}", tok)
            handler = {
                "chart": self.parse_chart,
                "field": lambda: self.parse_value("field"),
                "form": lambda: self.parse_value("form"),
                "dist": self.parse_dist,
                "point": self.parse_point,
                "task": self.parse_task,
            }.get(tok.text)
            if handler is None:
                self.error(f"unknown declaration {tok.text!r}", tok)
            ast.decls.append(handler())
            self.end_statement()

    def parse_name(self, role):
        tok = self.expect("ident", f"{role} name")
        if tok.text in RESERVED:
            self.error(f"{tok.text!r} is reserved", tok)
        return tok

    def parse_chart(self):
        kw = self.next()
        name = self.parse_name("chart")
        self.expect("(")
        variables = [self.parse_name("variable").text]
        while self.peek().kind == ",":
            self.next()
            variables.append(self.parse_name("variable").text)
        self.expect(")")
        return ChartDecl(name.text, tuple(variables), kw.line, kw.col)

    def parse_value(self, kind):
        kw = self.next()
        name = self.parse_name(kind)
        self.expect("=")
        expr = self.parse_expr()
        return ValueDecl(kind, name.text, expr, kw.line, kw.col)

    def parse_dist(self):
        kw = self.next()
        name = self.parse_name("dist")
        self.expect("=")
        mode = self.expect("ident", "'span' or 'ann'")
        if mode.text not in ("span", "ann"):
            self.error(f"expected 'span' or 'ann', found {mode.text!r}", mode)
        self.expect("(")
        refs = [self.parse_name("reference").text]
        while self.peek().kind == ",":
            self.next()
            refs.append(self.parse_name("reference").text)
        self.expect(")")
        return DistDecl(name.text, mode.text, tuple(refs), kw.line, kw.col)

    def parse_rational(self):
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
                self.error("zero denominator in coordinate", den)
            value = value / den_value
        return value

    def parse_point(self):
        kw = self.next()
        name = self.parse_name("point")
        self.expect("=")
        self.expect("(")
        coords = [self.parse_rational()]
        while self.peek().kind == ",":
            self.next()
            coords.append(self.parse_rational())
        self.expect(")")
        return PointDecl(name.text, tuple(coords), kw.line, kw.col)

    def parse_task(self):
        kw = self.next()
        task = self.expect("ident", "task name")
        args = []
        while self.peek().kind == "ident":
            args.append(self.next().text)
        return TaskDecl(task.text, tuple(args), task.line, task.col)

    # expressions

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right = self.parse_term()
            node = BinOp(op.kind, node, right, op.line, op.col)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            right = self.parse_factor()
            node = BinOp(op.kind, node, right, op.line, op.col)
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.next()
            operand = self.parse_factor()
            return Unary(-1 if tok.kind == "-" else 1, operand, tok.line, tok.col)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            exp = self.expect("number", "an integer exponent")
            value = decimal_to_int(exp.text)
            if value >= DEGREE_BOUND:
                self.error(f"exponent {int_to_decimal(value)} is too large: "
                           "powers stay below 2^31", exp)
            return Power(base, sign * value, caret.line, caret.col)
        return base

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "number":
            return Num(decimal_to_int(tok.text), tok.line, tok.col)
        if tok.kind == "@":
            var = self.expect("ident", "a variable after '@'")
            return CoordField(var.text, tok.line, tok.col)
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            if tok.text == "d":
                self.expect("(")
                var = self.expect("ident", "a variable inside d(...)")
                self.expect(")")
                return CoordForm(var.text, tok.line, tok.col)
            if tok.text in RESERVED:
                self.error(f"{tok.text!r} is reserved", tok)
            return Name(tok.text, tok.line, tok.col)
        self.error(f"unexpected {tok.text or tok.kind!r} in expression", tok)


def parse(source):
    """Parse model text into a declaration list; names are resolved later."""
    if isinstance(source, str):
        source = ModelSource(source)
    tokens = _tokenize(source.text, source.origin)
    return _Parser(tokens, source.origin).parse_model()


@dataclass
class Model:
    """Elaborated model: one chart plus named geometric objects and tasks."""

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


class _Elaborator:
    def __init__(self, ast):
        self.ast = ast
        self.origin = ast.origin
        self.chart = None
        self.scalars = {}
        self.fields = {}
        self.forms = {}
        self.dists = {}
        self.points = {}
        self.tasks = []
        self.dist_defs = {}
        self.order = []

    def fail(self, cls, message, node):
        raise cls(message, self.origin, node.line, node.col)

    def check_fresh(self, name, node):
        if self.chart is not None and name in self.chart._index:
            self.fail(DuplicateName, f"{name!r} is already a chart variable", node)
        for table in (self.fields, self.forms, self.dists, self.points):
            if name in table:
                self.fail(DuplicateName, f"{name!r} is already declared", node)

    def run(self):
        for decl in self.ast.decls:
            if isinstance(decl, ChartDecl):
                self.do_chart(decl)
            elif isinstance(decl, ValueDecl):
                self.do_value(decl)
            elif isinstance(decl, DistDecl):
                self.do_dist(decl)
            elif isinstance(decl, PointDecl):
                self.do_point(decl)
            elif isinstance(decl, TaskDecl):
                self.do_task(decl)
        if self.chart is None:
            raise InconsistentChart("model declares no chart", self.origin, 1, 1)
        return Model(self.origin, self.chart, self.fields, self.forms,
                     self.dists, self.points, self.tasks, self.dist_defs,
                     self.order)

    def need_chart(self, node):
        if self.chart is None:
            self.fail(InconsistentChart, "no chart declared yet", node)

    def do_chart(self, decl):
        if self.chart is not None:
            self.fail(InconsistentChart, "model already has a chart", decl)
        self.chart = Chart(decl.name, decl.variables)

    def do_value(self, decl):
        self.need_chart(decl)
        self.check_fresh(decl.name, decl)
        value = self.eval_expr(decl.expr)
        if decl.kind == "field":
            coerced = self.as_field(value, decl)
            self.fields[decl.name] = coerced
        else:
            coerced = self.as_form(value, decl)
            self.forms[decl.name] = coerced
        self.order.append((decl.kind, decl.name))

    def as_field(self, value, node):
        if isinstance(value, VectorField):
            return value
        self.fail(TypeMismatch, "field declaration needs a vector expression", node)

    def as_form(self, value, node):
        if isinstance(value, OneForm):
            return value
        self.fail(TypeMismatch, "form declaration needs a one-form expression", node)

    def do_dist(self, decl):
        self.need_chart(decl)
        self.check_fresh(decl.name, decl)
        if decl.mode == "span":
            members = []
            for ref in decl.refs:
                if ref not in self.fields:
                    self.fail(UnknownIdentifier, f"unknown field {ref!r}", decl)
                members.append(self.fields[ref])
            dist = Distribution(self.chart, members)
            if dist.generic_rank != len(members):
                self.fail(DegenerateFrame,
                          f"span frame has generic rank {dist.generic_rank}, "
                          f"expected {len(members)}", decl)
        else:
            members = []
            for ref in decl.refs:
                if ref not in self.forms:
                    self.fail(UnknownIdentifier, f"unknown form {ref!r}", decl)
                members.append(self.forms[ref])
            try:
                dist = annihilator_frame(members)
            except DependentForms as exc:
                self.fail(DegenerateFrame, str(exc), decl)
        self.dists[decl.name] = dist
        self.dist_defs[decl.name] = (decl.mode, decl.refs)
        self.order.append(("dist", decl.name))

    def do_point(self, decl):
        self.need_chart(decl)
        self.check_fresh(decl.name, decl)
        if len(decl.coords) != self.chart.dimension:
            self.fail(ArityError,
                      f"point has {len(decl.coords)} coordinates, chart "
                      f"{self.chart.name!r} has {self.chart.dimension}", decl)
        self.points[decl.name] = PointQ(self.chart, decl.coords)
        self.order.append(("point", decl.name))

    def do_task(self, decl):
        self.need_chart(decl)
        if decl.task not in TASK_NAMES:
            self.fail(UnknownIdentifier, f"unknown task {decl.task!r}", decl)
        if decl.task == "lift":
            if len(decl.args) != 3:
                self.fail(ArityError, "task lift needs exactly three field names", decl)
            for ref in decl.args:
                if ref not in self.fields:
                    self.fail(UnknownIdentifier, f"unknown field {ref!r}", decl)
        else:
            if len(decl.args) > 1:
                self.fail(ArityError,
                          f"task {decl.task!r} takes at most one distribution name", decl)
            for ref in decl.args:
                if ref not in self.dists:
                    self.fail(UnknownIdentifier, f"unknown dist {ref!r}", decl)
        self.tasks.append((decl.task, decl.args))
        self.order.append(("task", len(self.tasks) - 1))

    # expression evaluation

    def eval_expr(self, node):
        if isinstance(node, Num):
            return self.chart.const(node.value)
        if isinstance(node, Name):
            if node.name in self.chart._index:
                return self.chart.var(node.name)
            if node.name in self.fields:
                return self.fields[node.name]
            if node.name in self.forms:
                return self.forms[node.name]
            self.fail(UnknownIdentifier, f"unknown identifier {node.name!r}", node)
        if isinstance(node, CoordField):
            if node.var not in self.chart._index:
                self.fail(UnknownIdentifier, f"unknown variable {node.var!r}", node)
            return coordinate_field(self.chart, node.var)
        if isinstance(node, CoordForm):
            if node.var not in self.chart._index:
                self.fail(UnknownIdentifier, f"unknown variable {node.var!r}", node)
            return coordinate_form(self.chart, node.var)
        if isinstance(node, Unary):
            value = self.eval_expr(node.operand)
            return value if node.sign == 1 else -value
        if isinstance(node, Power):
            base = self.eval_expr(node.base)
            if not isinstance(base, RatFunc):
                self.fail(TypeMismatch, "powers apply to scalar expressions only", node)
            if node.exponent < 0 and base.is_zero():
                self.fail(TypeMismatch, "division by the zero function", node)
            return base ** node.exponent
        if isinstance(node, BinOp):
            return self.eval_binop(node)
        raise AssertionError(f"unhandled node {node!r}")

    def eval_binop(self, node):
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.right)
        scalar_l = isinstance(left, RatFunc)
        scalar_r = isinstance(right, RatFunc)
        if node.op in ("+", "-"):
            if scalar_l and scalar_r:
                return left + right if node.op == "+" else left - right
            if type(left) is type(right) and not scalar_l:
                return left + right if node.op == "+" else left - right
            self.fail(TypeMismatch,
                      "addition needs two scalars, two fields, or two forms", node)
        if node.op == "*":
            if scalar_l and scalar_r:
                return left * right
            if scalar_l:
                return right.scale(left)
            if scalar_r:
                return left.scale(right)
            self.fail(TypeMismatch, "cannot multiply two non-scalar expressions", node)
        if node.op == "/":
            if not scalar_r:
                self.fail(TypeMismatch, "division needs a scalar divisor", node)
            if right.is_zero():
                self.fail(TypeMismatch, "division by the zero function", node)
            if scalar_l:
                return left / right
            return left.scale(right ** (-1))
        raise AssertionError(f"unhandled operator {node.op!r}")


def elaborate(ast):
    return _Elaborator(ast).run()


def load_model(source):
    return elaborate(parse(source))


def parse_scalar(chart, text):
    """Parse a scalar expression against an existing chart (testing/parameters)."""
    tokens = _tokenize(text, "<expr>")
    parser = _Parser(tokens, "<expr>")
    node = parser.parse_expr()
    parser.skip_newlines()
    tail = parser.peek()
    if tail.kind != "eof":
        parser.error(f"unexpected {tail.text!r} after expression", tail)
    elab = _Elaborator(ModelAst("<expr>"))
    elab.chart = chart
    value = elab.eval_expr(node)
    if not isinstance(value, RatFunc):
        raise TypeMismatch("expected a scalar expression", "<expr>", 1, 1)
    return value


def _render_covariant(value):
    """``value.render()``, but a zero field or form stays a parsable ``0*@x``."""
    if value.is_zero():
        return "0*" + value.atom.format(value.chart.variables[0])
    return value.render()


def render_model(model):
    """Canonical model text; re-parsing yields a structurally equal model."""
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
