import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from tangleslopes import cli, solver
from tangleslopes.cli import build_parser, entrypoint, main

PRETZEL_237 = "-1/2 + 1/3 + 1/7"
NO_SYSTEMS = "2 + 1/3 + 1/3 + 1/3 + 1/3 + 1/3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_slopes_json_ok(capsys):
    code, out, err = run(capsys, "slopes", PRETZEL_237)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["slopes"] == ["0", "16", "37/2", "20"]
    assert doc["crossings"] == {"count": 12, "source": "diagram-count"}
    # c_bound is the only search bound a report carries, null for a sum
    assert sorted(doc) == [
        "c_bound", "certified", "crossings", "diameter", "expr", "notes",
        "ratio", "schema_version", "slopes", "systems",
    ]
    assert doc["c_bound"] is None


def test_sum_report_does_not_depend_on_c_bound(capsys):
    # a sum is solved exactly: a given bound is checked, then unused. Slope
    # 12 is the u = 0 system of descents to 33, -33 and 0, past the SN
    # default bound 32
    text = "67/2 + -100/3 + 1/7"
    code, out, _ = run(capsys, "slopes", text)
    assert code == 0 and json.loads(out)["slopes"] == ["0", "12", "100/7"]
    assert run(capsys, "slopes", "--c-bound", "1", text) == (code, out, "")
    for bound in ("0", "-1"):
        code, out, err = run(capsys, "slopes", "--c-bound", bound, text)
        assert code == 2 and out == "" and "c_bound must be at least 1" in err
    _, table, _ = run(capsys, "slopes", text, "--format", "table")
    assert "c_bound     -" in table.splitlines()


def test_slopes_json_matches_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("tangleslopes.schemas").joinpath("report.schema.json").read_text()
    )
    for argv in (
        ("slopes", PRETZEL_237),
        ("kn", "--n", "2"),
        ("slopes", "1/3 + 1/3 + 1/3"),
        ("slopes", "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)"),
    ):
        main(list(argv))
        out = capsys.readouterr().out
        if out:
            jsonschema.validate(json.loads(out), schema)


def test_table_and_json_agree_on_slopes(capsys):
    _, out_json, _ = run(capsys, "slopes", PRETZEL_237)
    _, out_table, _ = run(capsys, "slopes", PRETZEL_237, "--format", "table")
    doc = json.loads(out_json)
    table_line = next(l for l in out_table.splitlines() if l.startswith("slopes"))
    assert table_line.split()[1:] == doc["slopes"]


def test_kn_table_has_trace_block(capsys):
    code, out, _ = run(capsys, "kn", "--n", "2", "--format", "table")
    assert code == 0
    assert "family system n=2" in out
    assert "(1,5,-3) (1,5,2)" in out
    assert "(1,5,-1)" in out
    assert "(1,0,-6)  tau'=2" in out
    assert "right tau     -16" in out
    assert "system tau    -14" in out


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "slopes", "bad//")
    assert code == 2
    assert "error:" in err


def test_non_ascii_digit_exit(capsys):
    code, _, err = run(capsys, "slopes", "1/\u00b2")  # superscript two
    assert code == 2
    assert "unexpected character" in err


def test_report_expr_solves_to_the_same_report(capsys):
    # a product under a sum: the report's expr must name the same knot, so
    # solving it again gives the same bytes. No normalization: exit 3
    code, out, _ = run(capsys, "slopes", "1/2 + (1/3 o 1/5) + 1/7")
    assert code == 3
    expr = json.loads(out)["expr"]
    assert expr == "1/2 + (1/3 o 1/5) + 1/7"
    assert run(capsys, "slopes", expr)[:2] == (code, out)


def test_unsupported_shape_exit(capsys):
    code, _, err = run(capsys, "slopes", "1/2 + 1/3")
    assert code == 2
    assert "two-bridge" in err


def test_empty_result_exit(capsys):
    code, out, err = run(capsys, "slopes", "1/3 + 1/3 + 1/3")
    assert code == 3
    assert "no candidate slopes found" in err
    assert "normalization unavailable" in err
    doc = json.loads(out)
    assert doc["slopes"] == [] and doc["systems"]


def test_bad_bounds_exit(capsys):
    code, _, err = run(capsys, "slopes", PRETZEL_237, "--c-bound", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("slopes", "-1/3 + 1/5 + 1/7"),
    ("slopes", PRETZEL_237, "--format", "table"),
    ("plot", PRETZEL_237, "--format", "tsv"),
])
def test_leading_minus_without_spaces_is_the_expression(capsys, argv):
    # argparse would read -1/3+1/5+1/7 as an unknown option
    command, expr, *rest = argv
    spaced = run(capsys, command, expr, *rest)
    assert spaced[0] in (0, 3) and spaced[1]
    assert run(capsys, command, expr.replace(" ", ""), *rest) == spaced
    # a negative bound is still the flag's value, and still rejected
    code, out, err = run(capsys, command, expr.replace(" ", ""), "--c-bound", "-1")
    assert code == 2 and out == "" and "c_bound must be at least 1" in err


def test_removed_scale_flag_is_a_usage_error(capsys):
    # c_bound is the only search bound; the old --scale-bound flag is gone
    for argv in (
        ("slopes", PRETZEL_237),
        ("kn", "--n", "2"),
        ("verify", "--n-max", "2"),
        ("plot", "--n", "2"),
    ):
        code, out, err = run(capsys, *argv, "--scale-bound", "4")
        assert code == 2, argv
        assert out == "" and "--scale-bound" in err


def test_deep_expression_exit(capsys):
    code, _, err = run(capsys, "slopes", " + ".join(["1/3"] * 1200))
    assert code == 2
    assert "nests too deeply" in err


def test_failed_family_check_exit(monkeypatch, capsys):
    # a wrong reference twist makes the family system's checks disagree
    monkeypatch.setattr(solver, "seifert_tau", lambda expr: Fraction(1))
    code, _, err = run(capsys, "kn", "--n", "2")
    assert code == 1
    assert "family system check" in err
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 1
    assert out.splitlines()[0].startswith("n=2 FAIL (trace: family system check")


def test_verify_checks_every_reported_system(monkeypatch, capsys):
    # the solve builds its traces itself; verify replays each one, so a
    # report whose last system claims a wrong tau fails
    real = cli.solve_sn

    def tampered(expr, c_bound=None):
        rep = real(expr, c_bound)
        last = rep.systems[-1]
        wrong = last._replace(tau=last.tau + 2)
        return rep._replace(systems=rep.systems[:-1] + (wrong,))

    monkeypatch.setattr(cli, "solve_sn", tampered)
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 1
    assert out.splitlines() == [
        "n=2 FAIL (system 14: tau 16 != replayed 14)",
        "FAIL: 1 of 1 checks",
    ]


def test_verify_ok_and_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "--n-max", "3")
    code2, out2, _ = run(capsys, "verify", "--n-max", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "n=2 pass (slopes ±14, diameter 28, ratio 7/2)"
    assert lines[1] == "n=3 pass (slopes ±28, diameter 56, ratio 14/3)"
    assert lines[-1] == "all pass (n=2..3)"


def test_verify_rejects_small_range(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "1")
    assert code == 2
    assert err


def test_plot_needs_exactly_one_source(capsys):
    assert run(capsys, "plot", PRETZEL_237, "--n", "2")[0] == 2
    assert run(capsys, "plot")[0] == 2


def test_plot_svg_file(tmp_path, capsys):
    target = tmp_path / "kn2.svg"
    code, _, _ = run(capsys, "plot", "--n", "2", "--out", str(target))
    assert code == 0
    root = ET.fromstring(target.read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) >= 5
    # constants render as horizontal segments through their own point:
    # kn_system(2)'s constant on -1/2 passes through u = 5/6
    assert any(el.get("points") == "360,435 560,435 660,435" for el in polylines)


def test_plot_tsv_rows(capsys):
    code, out, _ = run(capsys, "plot", "--n", "2", "--format", "tsv")
    assert code == 0
    rows = out.splitlines()
    assert "1/2\t-1/2\t0\t0" in rows
    assert all(len(r.split("\t")) == 4 for r in rows)


def test_plot_empty_writes_nothing(tmp_path, capsys):
    target = tmp_path / "none.svg"
    code, _, err = run(capsys, "plot", NO_SYSTEMS, "--out", str(target))
    assert code == 3
    assert not target.exists()
    assert "nothing to plot" in err


def test_io_error_exit(capsys):
    code, _, err = run(capsys, "plot", "--n", "2", "--out", "/nonexistent-dir/x.svg")
    assert code == 4
    assert "error:" in err


def test_out_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "slopes", PRETZEL_237, "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["slopes"] == ["0", "16", "37/2", "20"]


def test_entrypoint_returns_int(capsys):
    assert entrypoint(["verify", "--n-max", "2"]) == 0
    capsys.readouterr()


def test_parser_defaults():
    args = build_parser().parse_args(["slopes", PRETZEL_237])
    assert args.format == "json" and args.c_bound is None
    args = build_parser().parse_args(["verify"])
    assert args.n_max == 4


@pytest.mark.parametrize(
    "level, shown",
    [
        ("info", True),
        ("INFO", True),
        ("debug", True),
        ("warn", False),
        ("warning", False),
        ("bogus", False),  # an unknown name means warning
        (None, False),  # unset: logging is not even imported
    ],
)
def test_log_level_reads_logging_level_names(level, shown):
    # the solver logs one info line per SN solve; LOG_LEVEL is read once,
    # at process start, so each level needs its own process. The log goes
    # to stderr, and stdout is the report either way
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("LOG_LEVEL", None)
    if level is not None:
        env["LOG_LEVEL"] = level
    done = subprocess.run(
        [sys.executable, "-m", "tangleslopes.cli", "kn", "--n", "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert ("INFO tangleslopes.solver: sn solve" in done.stderr) is shown
    assert json.loads(done.stdout)["certified"] == ["-14", "14"]


def test_info_line_counts_what_the_passes_do():
    # kn(3) solves at c_bound 14, over 4 distinct nodes. The runs of each
    # leaf, -1/3 and 1/4, end at -14..14: 29 keys each. Their sum's
    # one-sheet keys are the sums, -28..28 (57). Each of these three run
    # sets is one span, counted without building its keys; the product's
    # turned table counts the 56 with c != 0 by formula, (1, 0, c) ->
    # (1, |c| - 1, sign c), and builds none either; the root closes 2:
    # 173. The formula families (each leaf's constants, the sum's constant
    # pairs and their turn) are asked per direction, never listed.
    # Each leaf has two nonempty run windows, so each of the 3 one-sheet
    # keys demanded of the sum compares 2 x 2 window pairs.
    # (1/2 + 1/3) o (-1/5 + -1) is 6/5 - 6/5: every key of its root's
    # family of constant pairs closes, but the root keeps only the first
    # beside its explicit closings (sn docstring), here the family's one
    # key at c_bound 8. (1/3 + -1/3) o (1/3 + -1/3) is 0 o 0: the left
    # factor's family of value 0 turns into none, and so does every merge
    # above such a turn, and that merge's own turn: the left factor of
    # (1/2 + ((1/3 + -1/3) o 1/2)) o (2/3 o -3/2) admits no direction.
    # (1/2 o 1/3) + (-1/2 o -1/3) is 7/3 - 7/3, a sum root of value 0,
    # whose family holds 107 keys at c_bound 32. The family of
    # -1/2 o (-1/4 + 3/4) o 2/3, 2 - 2, holds 401,635 keys at c_bound
    # 4096: the counts show that none is listed, with no timing. The two
    # chains at c_bound 16384 glue a product of one-sheet factors below the
    # root by formula; their counts of keys are what listing them built, and
    # the demand and tau passes do the same work as at c_bound 32
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), LOG_LEVEL="info")
    cases = (
        (["kn", "--n", "3"], 0,
         "sn solve, c_bound=14, 4 nodes: 173 keys counted, 17 demanded, 12 window"
         " pairs and 60 witness pairs compared"),
        # no even-denominator tangle in its right factor: no slope, exit 3
        (["slopes", "(1/2 + 1/3) o (-1/5 + -1)", "--c-bound", "8"], 3,
         "sn solve, c_bound=8, 7 nodes: 136 keys counted, 22 demanded, 12 window"
         " pairs and 18 witness pairs compared"),
        (["slopes", "(1/3 + -1/3) o (1/3 + -1/3)"], 3,
         "sn solve, c_bound=32, 7 nodes: 647 keys counted, 19 demanded, 16 window"
         " pairs and 44 witness pairs compared"),
        (["slopes", "(1/2 + ((1/3 + -1/3) o 1/2)) o (2/3 o -3/2)"], 3,
         "sn solve, c_bound=32, 11 nodes: 1418 keys counted, 236 demanded, 16 window"
         " pairs and 1024 witness pairs compared"),
        (["slopes", "(1/2 o 1/3) + (-1/2 o -1/3)"], 3,
         "sn solve, c_bound=32, 7 nodes: 675 keys counted, 723 demanded, 0 window"
         " pairs and 1488 witness pairs compared"),
        (["slopes", "-1/2 o (-1/4 + 3/4) o 2/3", "--c-bound", "4096"], 3,
         "sn solve, c_bound=4096, 7 nodes: 99674 keys counted, 35 demanded, 20 window"
         " pairs and 54 witness pairs compared"),
        (["slopes", "(-2/5 + -1/5) o (-2/3 + 1/2) o (1/4 + -1/3)", "--c-bound", "16384"], 3,
         "sn solve, c_bound=16384, 11 nodes: 638979 keys counted, 59 demanded, 50 window"
         " pairs and 300 witness pairs compared"),
        (["slopes", "(1/2+1/3) o (1/4 + -1/3) o (1/5+1/2)", "--c-bound", "16384"], 0,
         "sn solve, c_bound=16384, 11 nodes: 666267 keys counted, 44 demanded, 36 window"
         " pairs and 170 witness pairs compared"),
    )
    for args, code, expected in cases:
        done = subprocess.run(
            [sys.executable, "-m", "tangleslopes.cli", *args], env=env, capture_output=True, text=True,
        )
        [line] = [line for line in done.stderr.splitlines() if "sn solve" in line]
        assert done.returncode == code and line.endswith(expected), args


def test_library_caller_configures_logging_after_import():
    # the solver looks logging up at each SN solve, so a logger configured
    # after `import tangleslopes` still gets the line
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = (
        "import tangleslopes, logging\n"
        "logging.basicConfig(level=logging.INFO)\n"
        "tangleslopes.solve_sn(tangleslopes.kn(2))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert "INFO:tangleslopes.solver:sn solve" in done.stderr


EXPORTS = [
    "kn", "kn_system", "parse", "render", "render_svg", "render_tsv", "solve",
    "solve_montesinos", "solve_sn", "uv_coords", "verify_system",
    "CandidateSystem", "ConstantPath", "Leaf", "NodeTrace", "Product", "SlopeReport", "Sum",
    "TangleExpr", "VertexPath", "WeightState",
    "CasePreconditionViolated", "DegeneratePoint", "FamilyCheckFailed", "FamilyRange",
    "FractionalEndpoint", "Infeasible", "MismatchedWeights", "ParseError", "SeifertUndefined",
    "TangleSlopesError", "UndefinedCase", "UnsupportedShape", "ZeroDenominator", "__version__",
]


def test_cli_import_leaves_out_unused_modules():
    # every CLI call pays this import; -S keeps site's own imports out of
    # it. logging loads only under LOG_LEVEL, plotting only for plot; the
    # package still exports plotting's functions, loaded on first use
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    unused = {"dataclasses", "inspect", "logging", "tangleslopes.plotting"}
    code = (
        "import sys, tangleslopes, tangleslopes.cli\n"
        "print(sorted(%r & set(sys.modules)))\n"
        "from tangleslopes import *\n"
        "from tangleslopes import plotting\n"
        "print(render_svg is plotting.render_svg and render_tsv is plotting.render_tsv)\n"
        "from tangleslopes import render_svg as svg, render_tsv as tsv\n"
        "print(svg is plotting.render_svg and tsv is plotting.render_tsv)\n"
        "print(tangleslopes.__all__)\n"
    ) % unused
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["[]", "True", "True", repr(EXPORTS)]
