"""Command-line interface: outputs, JSON mode, exit codes."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import moycalc
from moycalc import cli
from moycalc.cli import main
from moycalc.reduce import auto_reduce
from test_moybracket import _closure_text

CIRCLE = "n 3\narc x1 x2\nglue x1 x2\n"
KINK = "n 3\nxplus x1 x2 x3 x4\nglue x2 x3\nglue x1 x4\n"


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.moy"
    path.write_text(CIRCLE)
    return str(path)


def test_euler_text_output(circle_file, capsys):
    assert main(["euler", circle_file]) == 0
    out = capsys.readouterr().out
    assert "q^-2 + 1 + q^2" in out


def test_euler_json_output(circle_file, capsys):
    assert main(["euler", circle_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert doc["euler"] == {"-2": 1, "0": 1, "2": 1}
    assert doc["parity1"] == {"-2": 1, "0": 1, "2": 1}
    assert doc["parity0"] == {}


def test_signed_euler_flag(circle_file, capsys):
    assert main(["euler", circle_file, "--signed-euler"]) == 0
    out = capsys.readouterr().out
    assert "-q^-2 - 1 - q^2" in out


def test_build_and_reduce(circle_file, capsys):
    assert main(["build", circle_file]) == 0
    out = capsys.readouterr().out
    assert "potential: 0" in out

    assert main(["reduce", circle_file, "--show-rows"]) == 0
    out = capsys.readouterr().out
    assert "shift: {-2}" in out and "parity: <1>" in out
    assert "rule:" in out


def test_homology_output(circle_file, capsys):
    assert main(["homology", circle_file]) == 0
    out = capsys.readouterr().out
    assert "parity 0: 0" in out
    assert "parity 1: q^-2 + 1 + q^2" in out


def test_bracket_handles_crossings(tmp_path, capsys):
    path = tmp_path / "kink.moy"
    path.write_text(KINK)
    assert main(["bracket", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-q^2 - q^4 - q^6" in out
    assert main(["bracket", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bracket"] == {"2": -1, "4": -1, "6": -1}


THETA = ("n 3\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\nglue x3 x1\n"
         "glue x4 x2\n")
THETA_ROWS = [
    "(x1^3 + 3*x1^2*x2 + x1^2*y3 + 3*x1*x2^2 + 2*x1*x2*y3 + x1*y3^2"
    " - 4*x1*z3 + x2^3 + x2^2*y3 + x2*y3^2 - 4*x2*z3 + y3^3 - 4*y3*z3"
    " ; -x1 - x2 + y3)",
    "(-4*x1^2 - 6*x1*x2 - 4*x2^2 + 2*z3 ; -x1*x2 + z3)",
    "(x1^3 - x1^2*x2 + x1^2*y3 - x1*x2^2 - 2*x1*x2*y3 + x1*y3^2 + x2^3"
    " + x2^2*y3 + x2*y3^2 + y3^3 ; x1 + x2 - y3)",
    "(2*x1*x2 - 4*y3^2 + 2*z3 ; x1*x2 - z3)"]
JSON_DOCS = {
    ("circle", "build"): {"n": 3, "rows": ["(4*x1^3 ; 0)"], "shift": 0,
                        "parity": 0, "potential": "0"},
    ("circle", "reduce"): {"n": 3, "steps": 1, "summands": [
        {"rows": [], "rules": ["x1^3 -> 0"], "shift": -2, "parity": 1}]},
    ("circle", "homology"): {"n": 3, "euler": {"-2": 1, "0": 1, "2": 1},
                           "parity0": {},
                           "parity1": {"-2": 1, "0": 1, "2": 1},
                           "steps": 1},
    ("theta", "build"): {"n": 3, "rows": THETA_ROWS, "shift": -1, "parity": 0,
                       "potential": "0"},
    ("theta", "reduce"): {"n": 3, "steps": 4, "summands": [
        {"rows": [], "rules": ["x1^3 -> 0", "y1^2 -> -x1^2 + x1*y1"],
         "shift": -3, "parity": 0}]},
    ("theta", "homology"): {"n": 3,
                          "euler": {"-3": 1, "-1": 2, "1": 2, "3": 1},
                          "parity0": {"-3": 1, "-1": 2, "1": 2, "3": 1},
                          "parity1": {}, "steps": 4},
}


@pytest.mark.parametrize("web, command", sorted(JSON_DOCS))
def test_json_output(web, command, tmp_path, capsys):
    path = tmp_path / "web.moy"
    path.write_text({"circle": CIRCLE, "theta": THETA}[web])
    assert main([command, str(path), "--json"]) == 0
    out = capsys.readouterr().out
    doc = JSON_DOCS[(web, command)]
    assert json.loads(out) == doc
    assert out == json.dumps(doc, indent=2) + "\n"


def test_selftest_passes(capsys):
    assert main(["selftest", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("n_max", ["2", "0", "-4"])
def test_selftest_refuses_a_bound_below_three(n_max, capsys):
    # the checks run for n = 3..N, so a smaller N would check nothing
    with pytest.raises(SystemExit) as e:
        main(["selftest", "--n-max", n_max])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--n-max: must be at least 3, not %s" % n_max in err


def test_selftest_euler_takes_the_euler_command_path(monkeypatch, capsys):
    # one reduction per euler check (circle, double circle, theta), as
    # `moycalc euler` makes, not a second path through graded_homology
    calls = []

    def counting(mf):
        calls.append(mf)
        return auto_reduce(mf)

    monkeypatch.setattr(cli, "auto_reduce", counting)
    assert main(["selftest", "--n-max", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 3


# the package exceptions the CLI caught when it listed them one by one,
# each with the builtin base it keeps
CAUGHT = {
    "ArityMismatch": ValueError, "DiagramError": ValueError,
    "DuplicateUse": ValueError, "InfiniteDimension": ValueError,
    "KindMismatch": ValueError, "LaurentDivisionError": ArithmeticError,
    "MonomialOverflow": OverflowError, "NonExactDivision": ArithmeticError,
    "NonzeroPotential": ValueError, "NotAFactorization": ValueError,
    "NotMonicInVariable": ValueError, "OddShift": ValueError,
    "OrientationMismatch": ValueError, "ParseError": ValueError,
    "ReductionFailed": RuntimeError, "ResidualVariable": ValueError,
    "StuckGraph": ValueError, "TriangularityViolation": ValueError,
    "UnsupportedN": ValueError, "VariableInPotential": ValueError,
    "ZeroScalar": ValueError}


def test_every_package_exception_is_one_domain_error():
    # every exception class that a package module defines, found by
    # walking the modules: one added without the root fails here
    modules = [importlib.import_module("moycalc." + info.name)
               for info in pkgutil.iter_modules(moycalc.__path__)]
    defined = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    assert moycalc.DomainError in defined
    assert all(issubclass(cls, moycalc.DomainError) for cls in defined)
    assert cli.DOMAIN_ERRORS == (moycalc.DomainError, OSError)
    caught = {cls.__name__: cls for cls in defined - {moycalc.DomainError}
              if issubclass(cls, cli.DOMAIN_ERRORS)}
    assert caught.keys() == CAUGHT.keys()
    for name, cls in caught.items():
        assert issubclass(cls, CAUGHT[name]), name


def test_missing_file_is_domain_error(capsys):
    assert main(["euler", "/nonexistent/thing.moy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /nonexistent/thing.moy:")


def test_bad_diagram_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.moy"
    path.write_text("n 3\narc x1 x1\n")
    assert main(["euler", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["euler", "bracket"])
def test_non_ascii_n_is_domain_error(command, tmp_path, capsys):
    path = tmp_path / "sup.moy"
    path.write_text("n \u00b2\narc x1 x2\nglue x2 x1\n", encoding="utf-8")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: line 1, column 1: usage: n <int>" % path)


@pytest.mark.parametrize("command",
                         ["build", "reduce", "euler", "homology", "bracket"])
def test_non_utf8_file_is_domain_error(command, tmp_path, capsys):
    path = tmp_path / "latin1.moy"
    path.write_bytes(b"n 3\narc x1 x2\nglue x1 x2 \xff\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: not UTF-8 text" % path)


def test_open_bracket_is_domain_error(tmp_path, capsys):
    path = tmp_path / "open.moy"
    path.write_text("n 3\nwide x1 x2 x3 x4\n")
    assert main(["bracket", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path) and "closed" in err


def test_open_bracket_names_the_first_unglued_parameter(tmp_path, capsys):
    # the first in source order, not in name order (x10 sorts before x9)
    path = tmp_path / "open2.moy"
    path.write_text("n 3\narc x1 x2\nglue x2 x1\narc x9 x10\n"
                    "wide x5 x6 x7 x8\nglue x6 x7\n")
    assert main(["bracket", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: line 4: arc x9 is not glued; "
                          "bracket needs a closed diagram" % path)


@pytest.mark.parametrize("command", ["euler", "homology"])
def test_open_diagram_is_refused_with_its_line(command, tmp_path, monkeypatch,
                                               capsys):
    # an open diagram's potential is never zero, so it is refused before
    # any search; a crossing is still named first
    monkeypatch.setattr(cli, "auto_reduce",
                        lambda mf: pytest.fail("open diagram was reduced"))
    path = tmp_path / "open.moy"
    path.write_text("n 3\narc x1 x2\n")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: line 2: arc x1 is not glued; %s needs a closed diagram\n"
        % (path, command))
    path.write_text("n 3\narc x5 x6\n" + KINK[len("n 3\n"):])
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: %s: line 3: xplus"
                                              % path)


@pytest.mark.parametrize("command", ["euler", "build"])
def test_crossing_outside_bracket_is_domain_error(command, tmp_path, capsys):
    path = tmp_path / "kink.moy"
    path.write_text(KINK)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: line 2: xplus" % path)


def test_small_n_names_the_piece(tmp_path, capsys):
    path = tmp_path / "kink2.moy"
    path.write_text(KINK.replace("n 3", "n 2"))
    assert main(["bracket", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: line 2: xplus needs n >= 3" % path)


def test_infinite_dimension_message_ignores_hash_seed(tmp_path):
    # the search stops short on the closure of (W1 W0)^2 and homology
    # names an unbounded variable, with the identifier of its edge and the
    # line that writes it (x8 and x18 are glued, and their class is
    # numbered 8th); which one must not depend on set iteration order,
    # and neither may the residual rows reduce prints
    path = tmp_path / "hard.moy"
    path.write_text(_closure_text(3, 3, [("wide", 1), ("wide", 0)] * 2))
    src = str(Path(moycalc.__file__).resolve().parents[1])
    commands = (["euler"], ["reduce", "--show-rows"], ["homology", "--json"])
    outputs = {command[0]: set() for command in commands}
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for command in commands:
            run = subprocess.run(
                [sys.executable, "-m", "moycalc.cli", *command, str(path)],
                env=env, capture_output=True, text=True, timeout=120)
            outputs[command[0]].add((run.returncode, run.stdout, run.stderr))
    assert all(len(seen) == 1 for seen in outputs.values())
    (code, _, err), = outputs["euler"]
    assert code == 1
    assert err == ("error: %s: no bounding rule for x8 (edge x18, line 7)\n"
                   % path)
    (code, out, _), = outputs["reduce"]
    assert code == 0 and "rule: " in out


def test_stuck_bracket_names_the_lines_of_its_residual_graph(tmp_path):
    # no relation reduces the closure of (W1 W0)^3 at n = 4; the error is
    # one line naming the lines of the wide pieces left in the residual
    # graph (lines 5-10), the same under both hash seeds
    path = tmp_path / "stuck.moy"
    path.write_text(_closure_text(4, 3, [("wide", 1), ("wide", 0)] * 3))
    src = str(Path(moycalc.__file__).resolve().parents[1])
    runs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "moycalc.cli", "bracket", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        runs.add((run.returncode, run.stdout, run.stderr))
    assert runs == {(1, "", "error: %s: no relation applies; residual graph "
                     "of the pieces at lines 5, 6, 7, 8, 9, 10\n" % path)}


def test_large_n_runs_without_recursion(tmp_path, capsys):
    # f_n and the closure's homology raise x1 to about n: a power computed
    # one level of recursion per exponent would pass the interpreter's
    # recursion limit at this n
    arc = tmp_path / "arc.moy"
    arc.write_text("n 1200\narc x1 x2\n")
    assert main(["build", str(arc)]) == 0
    assert "potential: -x1^1201 + x2^1201" in capsys.readouterr().out
    circle = tmp_path / "circle.moy"
    circle.write_text("n 1200\narc x1 x2\nglue x1 x2\n")
    assert main(["euler", str(circle), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["euler"] == {str(d): 1 for d in range(-1199, 1200, 2)}


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_selftest_json(capsys):
    assert main(["selftest", "--n-max", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["checks", "failures"]
    assert doc["failures"] == 0
    assert [c["check"] for c in doc["checks"]] == [
        "circle euler", "double circle euler", "circle bracket",
        "double circle bracket", "theta bracket", "theta confluence",
        "theta euler"]
    for c in doc["checks"]:
        assert sorted(c) == ["check", "got", "n", "pass", "want"]
        assert c["n"] == 3 and c["pass"] and c["got"] == c["want"]


ARC_ROWS = {
    "build": "rows: 1  shift: {0}  parity: <0>\n"
             "  (x1^3 + x1^2*x2 + x1*x2^2 + x2^3 ; -x1 + x2)\n"
             "potential: -x1^4 + x2^4\n",
    "reduce": "steps: 0  summands: 1\nsummand 0:\n"
              "rows: 1  shift: {0}  parity: <0>\n"
              "  (-x1^3 - x1^2*x2 - x1*x2^2 - x2^3 ; x1 - x2)\n"}


@pytest.mark.parametrize("command", sorted(ARC_ROWS))
def test_show_rows_on_an_open_arc(command, tmp_path, capsys):
    path = tmp_path / "arc.moy"
    path.write_text("n 3\narc x1 x2\n")
    assert main([command, str(path), "--show-rows"]) == 0
    assert capsys.readouterr().out == ARC_ROWS[command]


@pytest.mark.parametrize("argv", [["build"], ["euler", "--json"]])
def test_a_byte_order_mark_is_accepted(argv, tmp_path, capsys):
    # a UTF-8 byte-order mark, as some editors save one, prints exactly
    # what the plain text prints
    plain, bom = tmp_path / "theta.moy", tmp_path / "bom.moy"
    plain.write_text(THETA, encoding="utf-8")
    bom.write_text(THETA, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    outputs = []
    for path in (plain, bom):
        assert main([argv[0], str(path)] + argv[1:]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""
