"""Per-layer tracing of flagrank from outside the package.

``Tracer.install`` wraps the public functions listed in FUNCTIONS by
rebinding every name that refers to them in every loaded ``flagrank.*``
namespace (modules import with ``from .x import y``, so patching only the
defining module would miss its callers), and wraps the METHODS at class
level.  ``uninstall`` puts every original back.

Each wrapped call is a span.  Its self time is its duration minus the time
covered by the wrapped calls inside it.  Spans of the coarse functions are
kept in memory as (id, name, start, end, parent, job) and written out by
``write_spans``; the hot arithmetic methods and ``poly_gcd`` are only counted,
which keeps memory and overhead bounded.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, metric name, keep spans)
FUNCTIONS = (
    ("algebra", "poly_gcd", "algebra.poly_gcd", False),
    ("linalg", "fraction_rank", "linalg.fraction_rank", True),
    ("linalg", "kernel_basis", "linalg.kernel_basis", True),
    ("linalg", "solve_in_span", "linalg.solve_in_span", True),
    ("linalg", "rank_generic", "linalg.rank_generic", True),
    ("calculus", "lie_bracket", "calculus.lie_bracket", True),
    ("distribution", "derived_flag", "distribution.derived_flag", True),
    ("distribution", "growth_at", "distribution.growth_at", True),
    ("distribution", "square_root_subdistribution",
     "distribution.square_root_subdistribution", True),
    ("classification", "adapted_frame", "classification.adapted_frame", True),
    ("classification", "bracket_form", "classification.bracket_form", True),
    ("classification", "regularity_scan", "classification.regularity_scan", True),
    ("parabolic", "parabolic_flag", "parabolic.parabolic_flag", True),
    ("parabolic", "verify_flag_relations", "parabolic.verify_flag_relations", True),
    ("parabolic", "symbol_d_function", "parabolic.symbol_d_function", True),
    ("parabolic", "symbol_algebra_at", "parabolic.symbol_algebra_at", True),
    ("parabolic", "e_subdistribution", "parabolic.e_subdistribution", True),
    ("parabolic", "branch_classify", "parabolic.branch_classify", True),
    ("models", "model_eq3", "models.model_eq3", True),
    ("models", "model_eq4", "models.model_eq4", True),
    ("dsl", "load_model", "dsl.load_model", True),
    ("cli", "main", "cli.main", True),
    ("cli", "_json_dump", "cli.canonical_json", True),
)

# (module, class, attribute names sharing one wrapper, metric name)
METHODS = (
    ("algebra", "RatFunc", ("__add__", "__radd__"), "algebra.RatFunc.add"),
    ("algebra", "RatFunc", ("__mul__", "__rmul__"), "algebra.RatFunc.mul"),
    ("algebra", "RatFunc", ("evaluate",), "algebra.RatFunc.evaluate"),
    ("linalg", "Echelon", ("add",), "linalg.Echelon.add"),
)

CALLS_PER_JOB = ("distribution.derived_flag", "classification.adapted_frame",
                 "parabolic.parabolic_flag")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for metric in [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]:
        names += [(f"{metric}.calls", "count"), (f"{metric}.self_s", "s")]
    names += [(f"{metric}.calls_per_job", "count") for metric in CALLS_PER_JOB]
    names += [("calculus.lie_bracket.unique_share", "share"),
              ("algebra.max_terms", "count"),
              ("trace.jobs", "count"),
              ("trace.overhead_share", "share")]
    return names


class Tracer:
    """Spans and counters of one traced pass; install, run jobs, uninstall."""

    def __init__(self):
        self.stack = []        # open calls: [start, child time, span id]
        self.stats = {}        # metric -> [calls, self seconds]
        self.spans = []        # (id, name, start, end, parent, job)
        self.job = None
        self.jobs = 0
        self.bracket_calls = 0
        self.bracket_unique = 0
        self.bracket_pairs = set()   # per job, cleared by start_job
        self.max_terms = 0
        self.origin = perf_counter()
        self._restore = []     # (owner, attribute, original)

    def _wrap(self, fn, metric, keep_spans, observe=None):
        stats = self.stats.setdefault(metric, [0, 0.0])
        stack = self.stack
        spans = self.spans
        origin = self.origin

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0, None]
            parent = stack[-1][2] if stack else None
            if keep_spans:
                frame[2] = len(spans)
                spans.append(None)
            else:
                frame[2] = parent
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_spans:
                    spans[frame[2]] = (frame[2], metric, frame[0] - origin,
                                       end - origin, parent, self.job)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_bracket(self, args, result):
        self.bracket_calls += 1
        key = (hash(args[0]), hash(args[1]))
        if key not in self.bracket_pairs:
            self.bracket_pairs.add(key)
            self.bracket_unique += 1
        for c in result.coefficients:
            terms = len(c.num.terms) + len(c.den.terms)
            if terms > self.max_terms:
                self.max_terms = terms

    def install(self):
        for module in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}:
            importlib.import_module(f"flagrank.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "flagrank"
                                         or name.startswith("flagrank."))]
        for module, attr, metric, keep_spans in FUNCTIONS:
            original = getattr(sys.modules[f"flagrank.{module}"], attr)
            observe = self._observe_bracket if attr == "lie_bracket" else None
            traced = self._wrap(original, metric, keep_spans, observe)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, traced)
        for module, cls_name, attrs, metric in METHODS:
            cls = getattr(sys.modules[f"flagrank.{module}"], cls_name)
            traced = self._wrap(vars(cls)[attrs[0]], metric, False)
            for attr in attrs:
                self._restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, traced)

    def uninstall(self):
        """Restore every original; returns the names that did not come back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in self._restore
                if vars(o)[n] is not orig]
        self._restore = []
        return left

    def start_job(self, job_id, counted=True):
        """Open the root span of one job; returns the closing callable."""
        self.job = job_id
        self.bracket_pairs.clear()
        if counted:
            self.jobs += 1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [perf_counter(), 0.0, span_id]
        self.stack.append(frame)

        def finish():
            end = perf_counter()
            self.stack.pop()
            self.spans[span_id] = (span_id, "job", frame[0] - self.origin,
                                   end - self.origin, None, job_id)
        return finish

    def metrics(self, overhead_share):
        out = {}
        for metric, (calls, self_s) in self.stats.items():
            out[f"{metric}.calls"] = calls
            out[f"{metric}.self_s"] = self_s
        for metric in CALLS_PER_JOB:
            out[f"{metric}.calls_per_job"] = self.stats[metric][0] / max(self.jobs, 1)
        out["calculus.lie_bracket.unique_share"] = (
            self.bracket_unique / self.bracket_calls if self.bracket_calls else 1.0)
        out["algebra.max_terms"] = self.max_terms
        out["trace.jobs"] = self.jobs
        out["trace.overhead_share"] = overhead_share
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["id", "name", "start_s", "end_s", "parent", "job"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
