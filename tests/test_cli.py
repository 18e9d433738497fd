"""Command-line interface: outputs, JSON mode, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moycalc
from moycalc.cli import main

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


def test_selftest_passes(capsys):
    assert main(["selftest", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_missing_file_is_domain_error(capsys):
    assert main(["euler", "/nonexistent/thing.moy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /nonexistent/thing.moy:")


def test_bad_diagram_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.moy"
    path.write_text("n 3\narc x1 x1\n")
    assert main(["euler", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_open_bracket_is_domain_error(tmp_path, capsys):
    path = tmp_path / "open.moy"
    path.write_text("n 3\nwide x1 x2 x3 x4\n")
    assert main(["bracket", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path) and "closed" in err


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
    # the search stops short on this diagram and homology names an
    # unbounded variable; which one must not depend on set iteration order
    path = tmp_path / "hard.moy"
    path.write_text("n 4\ndline d1 d2\ndline d3 d4\nwide x1 x2 x3 x4\n"
                    "glue x1 x4\nglue x2 x3\nglue d1 d2\nglue d3 d4\n")
    src = str(Path(moycalc.__file__).resolve().parents[1])
    errs = set()
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "moycalc.cli", "euler",
                              str(path)], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 1
        errs.add(run.stderr)
    assert len(errs) == 1 and "no bounding rule for" in errs.pop()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
