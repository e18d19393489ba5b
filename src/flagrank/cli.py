"""Command-line front end: load models, run analyses, emit deterministic reports.

``flagrank analyze`` accepts a model file, ``-`` for stdin, or ``--builtin``;
``flagrank models list`` / ``flagrank models emit NAME`` expose the catalog.
JSON reports are canonical (sorted keys, no timing) so identical requests
produce byte-identical output; wall-clock timing appears in text mode only.

``--tasks`` and ``--point`` are checked before any analysis starts.  Each
request then builds one ``Analysis`` per target distribution, with the
request's ``--samples`` and ``--seed``, and hands it to every task, so tasks
share their stages (one derived flag, frame, form, generic class, scan and
flag per distribution).  The argument parser is built on the first call of
``main`` and reused by every later call; it holds no request state, and the
``--seed`` default is read from ``FLAGRANK_SEED`` at each call.  Reports are
written by one canonical JSON writer, ``_json_dump``, in both formats.

Exit codes: 0 success, 2 model-text errors, an unreadable model file, or a
malformed ``--tasks``, ``--point`` or ``--seed``, 3 precondition failures,
4 unknown builtin model, 5 an internal error (any other exception, reported
as ``InternalError`` without a traceback).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .algebra import PointQ, decimal_to_int
from .distribution import growth_at
from .dsl import TASK_NAMES, ModelSource, load_model
from .errors import FlagrankError, ModelError, PreconditionError, \
    UnknownModel, UsageError
from .models import catalog_list, get_model, lift_pair
from .parabolic import Analysis

_EXIT_OK = 0
_EXIT_MODEL = 2
_EXIT_PRECONDITION = 3
_EXIT_UNKNOWN_MODEL = 4
_EXIT_INTERNAL = 5

DEFAULT_TASKS = ("branch",)


# an integer, a ratio n/d, or a decimal such as -1.25e3 or .5
_NUMBER = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)")
# largest |exponent| of a decimal coordinate: 10^exponent is built exactly
_MAX_EXPONENT = 10 ** 6


def _coordinate(text):
    """``Fraction(text)``, reading its digits past the 4300-digit limit.

    A decimal exponent above ``_MAX_EXPONENT`` in absolute value is a
    UsageError naming the coordinate.
    """
    match = _NUMBER.fullmatch(text)
    if match is None:
        return Fraction(text)  # other spellings Fraction reads, such as 1_000
    sign, whole, den, frac, exp = match.groups()
    if exp is not None:
        # past 7 digits it exceeds 10^6, and int() would meet the digit limit
        magnitude = exp.lstrip("+-").lstrip("0")
        if len(magnitude) > 7 or int(magnitude or 0) > _MAX_EXPONENT:
            raise UsageError(f"--point coordinate {text!r}: the decimal exponent "
                             f"must be at most {_MAX_EXPONENT} in absolute value")
    if den is not None:
        value = Fraction(decimal_to_int(whole), decimal_to_int(den))
    else:
        frac = frac or ""
        digits = decimal_to_int(whole + frac)
        scale = int(exp or 0) - len(frac)
        value = Fraction(digits * 10 ** scale) if scale >= 0 \
            else Fraction(digits, 10 ** -scale)
    return -value if sign == "-" else value


def _parse_point_text(chart, text):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")] if body else []
    try:
        coords = [_coordinate(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--point {text!r}: coordinates must be rational "
                         "numbers such as -3 or 1/2") from None
    if len(coords) != chart.dimension:
        raise UsageError(f"--point {text!r} has {len(coords)} coordinates; "
                         f"chart {chart.name} needs {chart.dimension}")
    return PointQ(chart, coords)


def _json_dump(payload):
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, written directly.

    With an indent, ``json.dumps`` runs CPython's pure-Python encoder; the
    report values need only a few of its branches.  ``payload`` is built of
    str, int, bool, None, lists, tuples and dicts with str keys; any other
    value or key raises TypeError.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(value, newline):
    """``value`` as JSON, indented for the depth whose line break is ``newline``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _json_text(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _task_growth(analysis, request):
    steps, growth = analysis.derived
    out = {
        "generic": growth.render(),
        "ranks": list(growth.ranks),
        "steps": [{"rank": s.generic_rank,
                   "frame": [f.render() for f in s.frame]} for s in steps],
    }
    point = request["point"]
    if point is not None:
        out["at_point"] = {"point": point.render(),
                           "ranks": list(growth_at(analysis.dist, point, steps))}
    return out


def _task_classify(analysis, request):
    out = {"generic": analysis.generic_class.value}
    point = request["point"]
    if point is not None:
        out["at_point"] = {"point": point.render(),
                           "class": analysis.class_at(point).value}
    return out


def _task_scan(analysis, request):
    return analysis.scan.to_json_dict()


def _task_flag(analysis, request):
    return {"flag": analysis.flag.to_json_dict(),
            "relations": [{"name": r.name, "holds": r.holds}
                          for r in analysis.relations]}


def _task_symbol(analysis, request):
    d_function = analysis.d_function
    out = {"class": "g0" if d_function.is_zero() else "g1",
           "d_function": d_function.render()}
    point = request["point"]
    if point is not None:
        algebra, sym_class = analysis.symbol_at(point)
        out["at_point"] = {"class": sym_class.value,
                           "algebra": algebra.to_json_dict()}
    return out


def _task_branch(analysis, request):
    return analysis.branch.to_json_dict()


_RUNNERS = {
    "growth": _task_growth,
    "classify": _task_classify,
    "scan": _task_scan,
    "flag": _task_flag,
    "symbol": _task_symbol,
    "branch": _task_branch,
}


def _task_lift(model, args, request):
    if args:
        names = list(args)
    else:
        names = [name for kind, name in model.order if kind == "field"]
    if len(names) < 3:
        raise PreconditionError(
            "task lift needs three declared fields (line, complement, third)")
    names = names[:3]
    fields = [model.fields[n] for n in names]
    lifted = lift_pair(*fields)
    report = Analysis(lifted, request["samples"], request["seed"]).branch
    return {"pair": names,
            "lifted_chart": {"name": lifted.chart.name,
                             "variables": list(lifted.chart.variables)},
            "frame": [f.render() for f in lifted.frame],
            "branch": report.to_json_dict()}


def _run_tasks(model, request):
    dist_name, dist = model.primary_dist()
    analyses = {}
    results = {}
    for task, args in request["tasks"]:
        if task == "lift":
            results["lift"] = _task_lift(model, args, request)
            continue
        target_name, target = dist_name, dist
        if args:
            target_name = args[0]
            target = model.dists[target_name]
        if target is None:
            raise PreconditionError("model declares no distribution to analyze")
        if target_name not in analyses:
            analyses[target_name] = Analysis(target, request["samples"],
                                             request["seed"])
        fragment = _RUNNERS[task](analyses[target_name], request)
        fragment["dist"] = target_name
        results[task] = fragment
    return results


def _build_report(model, model_name, request, results):
    return {
        "schema": 1,
        "tool": {"name": "flagrank", "version": __version__},
        "model": {
            "name": model_name,
            "origin": model.origin,
            "chart": {"name": model.chart.name,
                      "variables": list(model.chart.variables)},
        },
        "request": {
            "tasks": [t for t, _ in request["tasks"]],
            "samples": request["samples"],
            "seed": request["seed"],
            "point": request["point_text"],
        },
        "results": results,
    }


def _render_text_report(report, elapsed):
    model = report["model"]
    chart = model["chart"]
    parts = [f"flagrank {report['tool']['version']} report\n",
             f"model: {model['name']} ({model['origin']})\n",
             f"chart: {chart['name']}({', '.join(chart['variables'])})\n"]
    for task, fragment in sorted(report["results"].items()):
        parts += [f"-- {task} --\n", _json_dump(fragment)]
    parts.append(f"timing: {elapsed:.3f}s\n")
    return "".join(parts)


def _emit_error(kind, message, fmt, out):
    if fmt == "json":
        out.write(_json_dump({"schema": 1,
                              "error": {"type": kind, "message": message}}))
    else:
        out.write(f"error [{kind}]: {message}\n")


def _exit_code_for(exc):
    if isinstance(exc, UnknownModel):
        return _EXIT_UNKNOWN_MODEL
    if isinstance(exc, (ModelError, UsageError)):
        return _EXIT_MODEL
    return _EXIT_PRECONDITION


def _load_request_model(ns):
    if ns.builtin is not None:
        spec = get_model(ns.builtin)
        return ns.builtin, load_model(ModelSource(spec.source,
                                                  f"<builtin:{ns.builtin}>"))
    if ns.source is None:
        raise PreconditionError("nothing to analyze: give a file, '-', or --builtin")
    if ns.source == "-":
        text = sys.stdin.read()
        return "<stdin>", load_model(ModelSource(text, "<stdin>"))
    try:
        with open(ns.source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise UsageError(f"cannot read model file {ns.source!r}: {reason}") from None
    name = os.path.basename(ns.source)
    return name, load_model(ModelSource(text, ns.source))


def _cmd_analyze(ns, out):
    started = time.monotonic()
    model_name, model = _load_request_model(ns)
    if ns.tasks:
        tasks = [(t.strip(), ()) for t in ns.tasks.split(",") if t.strip()]
    elif model.tasks:
        tasks = list(model.tasks)
    else:
        tasks = [(t, ()) for t in DEFAULT_TASKS]
    if not tasks:
        raise UsageError(f"--tasks {ns.tasks!r} names no task")
    unknown = [t for t, _ in tasks if t not in TASK_NAMES]
    if unknown:
        raise UsageError(f"unknown task {unknown[0]!r}; choose from "
                         + ", ".join(TASK_NAMES))
    if ns.samples < 1:
        raise UsageError(f"--samples {ns.samples} must be >= 1")
    point = None
    if ns.point is not None:
        point = _parse_point_text(model.chart, ns.point)
    request = {"tasks": tasks, "samples": ns.samples, "seed": ns.seed,
               "point": point, "point_text": ns.point}
    results = _run_tasks(model, request)
    report = _build_report(model, model_name, request, results)
    if ns.format == "json":
        out.write(_json_dump(report))
    else:
        out.write(_render_text_report(report, time.monotonic() - started))
    return _EXIT_OK


def _cmd_models(ns, out):
    if ns.models_command == "list":
        if ns.format == "json":
            payload = [{"name": s.name, "title": s.title, "expected": s.expected}
                       for s in catalog_list()]
            out.write(_json_dump({"schema": 1, "models": payload}))
        else:
            for s in catalog_list():
                verdict = s.expected.get("verdict", s.expected.get("point_class", ""))
                out.write(f"{s.name:12s} {verdict:12s} {s.title}\n")
        return _EXIT_OK
    if ns.models_command == "emit":
        out.write(get_model(ns.name).source)
        return _EXIT_OK
    raise PreconditionError("choose a models subcommand: list or emit")


def build_arg_parser():
    """The ``flagrank`` parser; its ``analyze`` subparser is ``parser.analyze``,
    where ``main`` sets the ``--seed`` default at each call."""
    parser = argparse.ArgumentParser(
        prog="flagrank",
        description="Exact classification of rank-3 distributions on six-charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a model file or builtin")
    analyze.add_argument("source", nargs="?", default=None,
                         help="model file path, or '-' for stdin")
    analyze.add_argument("--builtin", default=None,
                         help="name of a bundled model (see 'models list')")
    analyze.add_argument("--tasks", default=None,
                         help="comma-separated: growth,classify,scan,flag,symbol,branch,lift")
    analyze.add_argument("--samples", type=int, default=20)
    analyze.add_argument("--seed", type=int,
                         default=os.environ.get("FLAGRANK_SEED", "0"))
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--point", default=None,
                         help="evaluate pointwise tasks at '(q, ..., q)'")
    parser.analyze = analyze

    models = sub.add_parser("models", help="inspect bundled models")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list")
    models_list.add_argument("--format", choices=("text", "json"), default="text")
    models_emit = models_sub.add_parser("emit")
    models_emit.add_argument("name")
    return parser


_PARSER = None  # built by the first call of main, then reused


def main(argv=None, out=None):
    global _PARSER
    out = out if out is not None else sys.stdout
    if _PARSER is None:
        _PARSER = build_arg_parser()
    parser = _PARSER
    # argparse converts a string default, so a non-integer FLAGRANK_SEED
    # still exits 2 with its usage message
    parser.analyze.set_defaults(seed=os.environ.get("FLAGRANK_SEED", "0"))
    ns = parser.parse_args(argv)
    fmt = getattr(ns, "format", "text")
    try:
        if ns.command == "analyze":
            return _cmd_analyze(ns, out)
        if ns.command == "models":
            return _cmd_models(ns, out)
        parser.error("unknown command")
    except FlagrankError as exc:
        _emit_error(type(exc).__name__, str(exc), fmt, out)
        return _exit_code_for(exc)
    except Exception as exc:  # last resort: a bug, reported without a traceback
        _emit_error("InternalError", f"{type(exc).__name__}: {exc}", fmt, out)
        return _EXIT_INTERNAL
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
