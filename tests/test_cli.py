"""Command-line behaviour: reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagrank import cli
from flagrank.cli import main
from util import digits_value, run_with_memory_limit


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv, out=out)
    return code, out.getvalue()


def test_branch_task_json(tmp_path):
    code, text = run_cli(["analyze", "--builtin", "j21", "--tasks", "branch",
                          "--format", "json"])
    assert code == 0
    report = json.loads(text)
    assert report["schema"] == 1
    assert report["results"]["branch"]["verdict"] == "Theorem1"


def test_symbol_task():
    code, text = run_cli(["analyze", "--builtin", "eq6", "--tasks", "symbol",
                          "--format", "json"])
    assert code == 0
    assert json.loads(text)["results"]["symbol"]["class"] == "g0"


def test_integrable_model_file_exits_precondition(tmp_path):
    path = tmp_path / "flat.dist"
    path.write_text(
        "chart M(a, b, c, x, y, z)\n"
        "field A = @a\nfield B = @b\nfield C = @c\n"
        "dist D = span(A, B, C)\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 3
    assert json.loads(text)["error"]["type"] == "NotGrowth356"


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.dist"
    path.write_text("chart M(x y)\n", encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "ModelSyntaxError"


def test_models_emit_and_unknown():
    code, text = run_cli(["models", "emit", "j21"])
    assert code == 0
    assert text.count("form w") == 3
    code, text = run_cli(["models", "emit", "nosuch"])
    assert code == 4


def test_models_list_json():
    code, text = run_cli(["models", "list", "--format", "json"])
    assert code == 0
    names = [m["name"] for m in json.loads(text)["models"]]
    assert "eq5" in names and "g1_flat" in names


def test_stdin_analysis(monkeypatch):
    _, emitted = run_cli(["models", "emit", "eq5"])
    code, text = run_cli(["analyze", "-", "--format", "json"],
                         stdin_text=emitted, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(text)["results"]["branch"]["verdict"] == "Theorem3"


def test_point_option():
    code, text = run_cli(["analyze", "--builtin", "eq5", "--tasks",
                          "growth,classify", "--point", "(0, 0, 0, 0, 0, 0)",
                          "--format", "json"])
    assert code == 0
    report = json.loads(text)
    assert report["results"]["growth"]["at_point"]["ranks"] == [3, 5, 6]
    assert report["results"]["classify"]["at_point"]["class"] == \
        "parabolic-nondegenerate"


@pytest.mark.parametrize("tasks, point", [
    ("growth,bogus", None),
    ("growth", "(1,2)"),
    ("growth", "(a,b,c,d,e,f)"),
    ("growth", "(1/0, 0, 0, 0, 0, 0)"),
])
def test_malformed_request_exits_2_before_any_analysis(monkeypatch, tasks, point):
    def no_analysis(dist):
        raise AssertionError("analysis started before the request was checked")

    monkeypatch.setattr(cli, "Analysis", no_analysis)
    argv = ["analyze", "--builtin", "eq5", "--tasks", tasks]
    if point is not None:
        argv += ["--point", point]
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "UsageError"
    assert (point or "bogus") in error["message"]
    code, text = run_cli(argv)
    assert code == 2
    assert text.startswith("error [UsageError]: ")


@pytest.mark.parametrize("point, rendered", [
    ("(0.5,1e1,+3,0,0,0)", "(1/2, 10, 3, 0, 0, 0)"),
    # CPython refuses int <-> text conversions past 4300 digits by default
    (f"({'7' * 5000},0,0,0,0,0)", f"({'7' * 5000}, 0, 0, 0, 0, 0)"),
    (f"(-{'7' * 5000}/1{'0' * 4400},0,0,0,0,0)",
     f"(-{'7' * 5000}/1{'0' * 4400}, 0, 0, 0, 0, 0)"),
], ids=["decimal", "integer", "ratio"])
def test_point_coordinates_are_exact(point, rendered):
    code, text = run_cli(["analyze", "--builtin", "eq5", "--tasks", "growth",
                          "--point", point, "--format", "json"])
    assert code == 0, text
    assert json.loads(text)["results"]["growth"]["at_point"]["point"] == rendered


@pytest.mark.parametrize("point, rendered", [
    (f"(0.{'7' * 5000},0,0,0,0,0)", f"({'7' * 5000}/1{'0' * 5000}, 0, 0, 0, 0, 0)"),
    (f"(-{'7' * 4999}.7e-1,0,0,0,0,0)", f"(-{'7' * 5000}/100, 0, 0, 0, 0, 0)"),
    (f"(.{'0' * 4999}5E4999,0,0,0,0,0)", "(1/2, 0, 0, 0, 0, 0)"),
], ids=["fraction-digits", "exponent", "leading-zeros"])
def test_long_decimal_point_coordinates_are_exact(point, rendered):
    # the expected text is built from digit strings: no int past 4300 digits
    # is ever converted to text here
    code, text = run_cli(["analyze", "--builtin", "eq5", "--tasks", "growth",
                          "--point", point, "--format", "json"])
    assert code == 0, text[:200]
    at_point = json.loads(text)["results"]["growth"]["at_point"]
    assert at_point["point"] == rendered
    assert at_point["ranks"] == [3, 5, 6]


def test_decimal_exponents_up_to_a_million_are_exact():
    assert cli._coordinate("1e1000000") == 10 ** 1000000
    assert cli._coordinate("-2.5E-0001000000") == Fraction(-25, 10 ** 1000001)


@pytest.mark.parametrize("coordinate", [
    "1e1000001", "-2.5E-0001000001", "0.5e+99999999999999999999", f"1e{'9' * 5000}",
])
def test_oversized_decimal_exponent_exits_2(coordinate):
    # 10 ** exponent was built exactly: 1e4000000 spent seconds in it
    code, text = run_cli(["analyze", "--builtin", "eq5", "--tasks", "growth",
                          "--point", f"({coordinate},0,0,0,0,0)", "--format", "json"])
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "UsageError"
    assert repr(coordinate) in error["message"]


def test_repeated_chart_variable_exits_2(monkeypatch):
    code, text = run_cli(["analyze", "-", "--tasks", "growth", "--format", "json"],
                         stdin_text="chart M(x, x, y)\nfield X = @x\n",
                         monkeypatch=monkeypatch)
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "DuplicateName"
    assert error["message"].startswith("<stdin>:1:12: ")


@pytest.mark.parametrize("flags, message", [
    (["--tasks", ",,"], "--tasks ',,' names no task"),
    (["--tasks", " , "], "--tasks ' , ' names no task"),
    (["--tasks", "growth", "--samples", "0"], "--samples 0 must be >= 1"),
    (["--tasks", "growth", "--samples", "-1"], "--samples -1 must be >= 1"),
])
def test_empty_tasks_and_nonpositive_samples_exit_2(monkeypatch, flags, message):
    def no_analysis(dist):
        raise AssertionError("analysis started before the request was checked")

    monkeypatch.setattr(cli, "Analysis", no_analysis)
    argv = ["analyze", "--builtin", "eq5"] + flags
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 2
    assert json.loads(text)["error"] == {"type": "UsageError", "message": message}
    code, text = run_cli(argv)
    assert code == 2
    assert text == f"error [UsageError]: {message}\n"


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(analysis, request):
        raise RuntimeError("stage exploded")

    monkeypatch.setitem(cli._RUNNERS, "growth", broken)
    argv = ["analyze", "--builtin", "eq5", "--tasks", "growth"]
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 5
    assert json.loads(text) == {
        "schema": 1,
        "error": {"type": "InternalError",
                  "message": "RuntimeError: stage exploded"}}
    code, text = run_cli(argv)
    assert code == 5
    assert text == "error [InternalError]: RuntimeError: stage exploded\n"
    assert "Traceback" not in capsys.readouterr().err


def test_json_reports_are_byte_identical():
    argv = ["analyze", "--builtin", "eq6", "--tasks", "branch,scan,symbol",
            "--format", "json", "--seed", "5"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("FLAGRANK_SEED", "9")
    code, text = run_cli(["analyze", "--builtin", "j21", "--tasks", "classify",
                          "--format", "json"])
    assert code == 0
    assert json.loads(text)["request"]["seed"] == 9


def test_bad_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FLAGRANK_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        run_cli(["analyze", "--builtin", "eq5", "--tasks", "growth"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: invalid int value: 'abc'" in err
    assert "Traceback" not in err
    # an explicit --seed still wins over the variable
    code, text = run_cli(["analyze", "--builtin", "j21", "--tasks", "classify",
                          "--format", "json", "--seed", "4"])
    assert code == 0
    assert json.loads(text)["request"]["seed"] == 4


def test_main_builds_its_parser_once(monkeypatch):
    built = []
    original = cli.build_arg_parser

    def counted():
        built.append(None)
        return original()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_arg_parser", counted)
    for argv in (["analyze", "--builtin", "j21", "--tasks", "classify", "--format", "json"],
                 ["analyze", "--builtin", "eq5", "--tasks", "growth"],
                 ["models", "list", "--format", "json"]):
        assert run_cli(argv)[0] == 0
    assert len(built) == 1


def test_reused_parser_reads_the_seed_variable_at_each_call(monkeypatch, capsys):
    argv = ["analyze", "--builtin", "j21", "--tasks", "classify", "--format", "json"]

    def seed_of(argv):
        code, text = run_cli(argv)
        assert code == 0
        return json.loads(text)["request"]["seed"]

    monkeypatch.delenv("FLAGRANK_SEED", raising=False)
    seed_of(argv)  # the parser now exists and every call below reuses it
    parser = cli._PARSER
    monkeypatch.setenv("FLAGRANK_SEED", "9")
    assert seed_of(argv) == 9
    monkeypatch.delenv("FLAGRANK_SEED")
    assert seed_of(argv) == 0
    monkeypatch.setenv("FLAGRANK_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    assert seed_of(argv + ["--seed", "4"]) == 4
    assert cli._PARSER is parser


def test_a_usage_error_leaves_the_next_report_unchanged(capsys):
    argv = ["analyze", "--builtin", "eq6", "--tasks", "branch,scan,symbol",
            "--format", "json", "--seed", "5"]
    _, before = run_cli(argv)
    code, text = run_cli(["analyze", "--builtin", "eq6", "--tasks", "scan,bogus",
                          "--samples", "3", "--seed", "7", "--point", "(1, 2, 3, 4, 5, 6)",
                          "--format", "json"])
    assert code == 2 and json.loads(text)["error"]["type"] == "UsageError"
    with pytest.raises(SystemExit):
        run_cli(["analyze", "--builtin", "eq6", "--samples", "2", "--format", "xml"])
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    _, after = run_cli(argv)
    assert after == before


@pytest.mark.parametrize("builtin, tasks", [
    ("eq6", "growth,classify,scan,flag,symbol,branch"),
    ("hyperbolic", "growth,classify,scan"),
])
def test_text_report_fragments_are_canonical_json(builtin, tasks):
    argv = ["analyze", "--builtin", builtin, "--tasks", tasks, "--samples", "5",
            "--point", "(1, 1, 1, 1, 1, 1)"]
    code, text = run_cli(argv)
    assert code == 0
    _, as_json = run_cli(argv + ["--format", "json"])
    results = json.loads(as_json)["results"]
    lines = text.splitlines(keepends=True)
    assert len(lines) > 4 and lines[-1].startswith("timing: ")
    assert "".join(lines[3:-1]) == "".join(
        f"-- {task} --\n" + json.dumps(results[task], sort_keys=True, indent=2) + "\n"
        for task in sorted(results))


_JSON_STRINGS = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\uffff'),
    st.integers(0xD800, 0xDFFF).map(chr)))  # lone surrogates
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-2 ** 200, 2 ** 200), _JSON_STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_dump(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {"a": [0, 2.0]}, {1, 2}, [set()], Fraction(1, 2), {"a": Fraction(3)},
    {1: "a"}, {"a": {"b": 0, None: 1}}, {(1,): 0},
])
def test_json_writer_rejects_other_values(value):
    with pytest.raises(TypeError):
        cli._json_dump(value)


def test_missing_model_file_is_a_usage_error(tmp_path):
    path = str(tmp_path / "absent.dist")
    code, text = run_cli(["analyze", path, "--format", "json"])
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "UsageError"
    assert repr(path) in error["message"]
    assert "No such file or directory" in error["message"]
    code, text = run_cli(["analyze", str(tmp_path), "--format", "json"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "UsageError"


def test_non_utf8_model_file_is_a_usage_error(tmp_path):
    path = tmp_path / "latin1.dist"
    path.write_bytes("chart M(\xe9, x2, y, y1, y2, z)\n".encode("latin-1"))
    code, text = run_cli(["analyze", str(path)])
    assert code == 2
    assert text.startswith(f"error [UsageError]: cannot read model file {str(path)!r}")


def test_file_task_list_used_by_default(tmp_path):
    path = tmp_path / "demo.dist"
    path.write_text(
        "chart M(x1, x2, y, y1, y2, z)\n"
        "field X1 = @x1\nfield X2 = @x2\n"
        "field Y = @y + x1*@y1 + x2*@y2 + ((x1^2 + x2^2)/2)*@z\n"
        "dist D = span(X1, X2, Y)\n"
        "task classify D\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(text)
    assert report["request"]["tasks"] == ["classify"]
    assert report["results"]["classify"]["generic"] == "elliptic"


def test_symbol_sample_skips_a_growth_drop(tmp_path):
    # the first point of seed 14, (-1, 4, 0, 0, -1, 3/2), is a growth drop:
    # the symbol search must skip it as the scan does
    path = tmp_path / "drop.dist"
    path.write_text(
        "chart C(x1, x2, y, y1, y2, z)\n"
        "field X1 = @x1\nfield X2 = @x2\n"
        "field Y = @y + y*x1*@y1 + x2*@y2 + (x2^2/2)*@z\n"
        "dist D = span(X1, X2, Y)\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--tasks", "scan,branch",
                          "--samples", "5", "--seed", "14", "--format", "json"])
    assert code == 0
    results = json.loads(text)["results"]
    assert {"point": "(-1, 4, 0, 0, -1, 3/2)", "reason": "growth-drop"} \
        in results["scan"]["skipped"]
    assert results["branch"]["verdict"] == "Theorem3"


def test_lift_task_from_file(tmp_path):
    path = tmp_path / "pair.dist"
    path.write_text(
        "chart J(x, p0, p1, p2, p3)\n"
        "field T = @x + p1*@p0 + p2*@p1 + p3*@p2\n"
        "field Y = @p3\n"
        "field Z = @p2\n"
        "task lift T Y Z\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 0
    fragment = json.loads(text)["results"]["lift"]
    assert fragment["branch"]["verdict"] == "Theorem2"
    assert fragment["lifted_chart"]["variables"][-1] == "s"


def test_nothing_to_analyze():
    code, text = run_cli(["analyze", "--format", "json"])
    assert code == 3


def test_text_format_has_timing_and_json_not():
    _, text = run_cli(["analyze", "--builtin", "j21", "--tasks", "classify"])
    assert "timing:" in text
    _, as_json = run_cli(["analyze", "--builtin", "j21", "--tasks", "classify",
                          "--format", "json"])
    assert "timing" not in as_json


def test_module_entrypoint_subprocess():
    # the child runs the package this suite imports, with or without PYTHONPATH
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "flagrank.cli", "models", "list"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.stderr == ""
    assert "j21" in result.stdout


def test_package_entrypoint_subprocess():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "flagrank", "models", "list"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.stderr == ""
    assert result.stdout == run_cli(["models", "list"])[1]


@pytest.mark.parametrize("expression, error, position", [
    # a negative power of zero is reported like a division by zero
    ("1/(y - y)", "TypeMismatch", "2:17"),
    ("(y - y)^-1", "TypeMismatch", "2:23"),
    ("0^-2", "TypeMismatch", "2:17"),
    # an exponent must stay below 2^31, the total-degree bound
    ("y^2147483648", "ModelSyntaxError", "2:18"),
    ("y^-2147483648", "ModelSyntaxError", "2:19"),
])
def test_bad_powers_are_positioned_model_errors(tmp_path, expression, error, position):
    path = tmp_path / "power.dist"
    path.write_text(f"chart M(x, y)\nfield X = @x + {expression}*@y\n",
                    encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 2
    report = json.loads(text)["error"]
    assert report["type"] == error
    assert report["message"].startswith(f"{path}:{position}: ")


@pytest.mark.parametrize("coefficient, value", [
    ("2^20000", 2 ** 20000),
    ("7" * 5000, (10 ** 5000 - 1) // 9 * 7),
], ids=["power", "literal"])
def test_coefficients_past_the_digit_limit(tmp_path, coefficient, value):
    # CPython refuses int <-> text conversions past 4300 digits by default
    path = tmp_path / "huge.dist"
    path.write_text(
        "chart M(a, b, c, x, y, z)\n"
        f"field A = @a + {coefficient}*@x\n"
        "field B = @b\nfield C = @c\ndist D = span(A, B, C)\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--tasks", "growth", "--format", "json"])
    assert code == 0, text
    frame = json.loads(text)["results"]["growth"]["steps"][0]["frame"]
    digits = re.fullmatch(r"\(1\)\*@a \+ \((\d+)\)\*@x", frame[0]).group(1)
    assert digits_value(digits) == value


def test_degree_overflow_during_analysis_exits_3(tmp_path):
    # the model loads; the bracket [A, B] multiplies x^(2^31 - 1) by x
    path = tmp_path / "overflow.dist"
    path.write_text(
        "chart M(x, y, z, u, v, w)\n"
        "field A = @x + x^2147483647*@y\n"
        "field B = @z + x*y*@u\n"
        "field C = @w\n"
        "dist D = span(A, B, C)\n",
        encoding="utf-8")
    code, text = run_cli(["analyze", str(path), "--tasks", "growth", "--format", "json"])
    assert code == 3
    report = json.loads(text)
    assert set(report) == {"schema", "error"}
    assert report["error"]["type"] == "DegreeOverflow"
    assert "2^31" in report["error"]["message"]


@pytest.mark.parametrize("coefficient, code, error", [
    # divides-first cancels x + z
    ("x^2147483646*(x + z)/(x + z)", 0, None),
    # a sum over coprime denominators needs no gcd past their own
    ("x^2440 + 1/(x^60 + 3)", 0, None),
    # the cross gcd reaches Brown's dense gcd in x, past its degree bound
    ("x^2147483645*(x + z)*(y + 1)/((x + z)*(y + 2))", 3, "DegreeOverflow"),
])
def test_huge_degree_gcd_models_exit_within_memory(tmp_path, coefficient, code, error):
    path = tmp_path / "huge.dist"
    path.write_text(
        "chart M(x, y, z, u, v, w)\n"
        f"field X = @x + ({coefficient})*@y\n"
        "field Y = @z + x*y*@u\n"
        "field Z = @w\n"
        "dist D = span(X, Y, Z)\n",
        encoding="utf-8")
    result = run_with_memory_limit(
        "import sys\n"
        "from flagrank.cli import main\n"
        f"sys.exit(main(['analyze', {str(path)!r}, '--tasks', 'growth', "
        "'--format', 'json']))\n")
    assert result.returncode == code, result.stdout + result.stderr
    report = json.loads(result.stdout)
    if error is None:
        assert report["results"]["growth"]["generic"] == "(3,4)"
    else:
        assert report["error"]["type"] == error


_COORDINATES = ("0", "1", "-2", "1/2", "-3/4", "2.5", ".5", "1e3", "1e-2", "7e999",
                "1/0", "0/0", "x", "", "1_0", "nan", "inf")
_POINTS = st.one_of(
    st.lists(st.sampled_from(_COORDINATES), min_size=5, max_size=7).map(
        lambda coords: "(" + ", ".join(coords) + ")"),
    st.text(alphabet="()0123456789,/.-e x", max_size=16))
_TASK_LISTS = st.lists(st.sampled_from(("growth", "classify", "scan", "flag", "symbol",
                                        "branch", "lift", "", " ", "bogus", "Growth")),
                       max_size=3).map(",".join)
_FRAGMENTS = st.one_of(
    st.tuples(st.just("--tasks"), _TASK_LISTS),
    st.tuples(st.just("--point"), _POINTS),
    st.tuples(st.just("--samples"), st.sampled_from(("1", "2", "3", "0", "-1", "x", "1.5"))),
    st.tuples(st.just("--seed"), st.sampled_from(("0", "5", "-3", "99", "abc", ""))),
    st.tuples(st.just("--format"), st.sampled_from(("json", "text", "xml"))),
    st.tuples(st.sampled_from(("--frobnicate", "-q", "--tasks", "--point", "extra"))))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("eq5", "eq6", "j21", "g1_flat", "elliptic", "nosuch")),
       st.lists(_FRAGMENTS, max_size=5))
def test_analyze_argv_fuzz_gives_a_report_or_a_usage_error(builtin, fragments):
    # argparse keeps the last value of a flag, so the fragments' --samples,
    # all small, override the leading one
    argv = ["analyze", "--builtin", builtin, "--samples", "3"]
    argv += [word for fragment in fragments for word in fragment]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            # argparse rejected the argv before any analysis: usage on stderr
            assert exc.code == 2
            assert "error:" in err.getvalue()
            assert "Traceback" not in err.getvalue() and not out.getvalue()
            return
    assert code in (0, 2, 3, 4), out.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if cli.build_arg_parser().parse_args(argv).format == "json":
        report = json.loads(out.getvalue())
        assert ("error" in report) == (code != 0)
    else:
        assert out.getvalue().startswith("error [") == (code != 0)
