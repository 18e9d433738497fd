"""Every function, class and method of the package has a caller outside
the tests: a name only tests use is dead surface, or belongs in a test."""

import ast
import sys
import tokenize
from pathlib import Path

import moycalc

SRC = Path(moycalc.__file__).resolve().parent
ROOT = SRC.parents[1]

# names kept without a program caller, each for a reason; the criteria
# are those of test_acceptance.py
KEPT = {
    "koszul_new": "the one-row constructor criteria 8 and 9 build from",
    "scale_row": "the row rescaling whose invariance criterion 8 checks",
    "flip_row": "the row flip of ROADMAP item 10's regular-sequence closer",
    "jacobi_algebra": "the Jacobi algebra of criteria 2 and 3",
    "crossing_complex": "the crossing complex of criterion 11",
    "exact_div": "the reference division of the tests' oracles, such as "
                 "[n][n-1]/[2] in criterion 2",
    "evaluate_at_one": "the total dimension of criterion 3",
    "positions": "the homological positions of the crossing complex that "
                 "criterion 11 reads",
    "expand_crossings": "perfbench/tracing.py rebinds it by name, as a "
                        "string, for moybracket.resolutions",
    "replay": "public API in the README, and the oracle that every "
              "reduction trace replays",
}


def _definitions():
    """{name: {(module path, line)}} of every module-level function and
    class and every method that is not a dunder."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += [item for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")]
            for item in nodes:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    out.setdefault(item.name, set()).add((path, item.lineno))
    return out


def _name_tokens(path):
    """{(name, line)} of the Python NAME tokens in a file: code, not its
    comments, docstrings or strings."""
    with open(path, "rb") as fh:
        return {(tok.string, tok.start[0])
                for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME}


def test_every_definition_has_a_caller_outside_the_tests():
    # a use is a NAME token in the package outside its definition lines
    # and __init__.py, or in perfbench/*.py; a name in prose (comments,
    # docstrings, strings, the README) is no use
    definitions = _definitions()
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= {name for name, line in _name_tokens(path)
                     if (path, line) not in definitions.get(name, ())}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= {name for name, _ in _name_tokens(path)}
    unused = definitions.keys() - used
    no_caller = sorted(unused - KEPT.keys())
    assert not no_caller, "no caller outside the tests: %s" % no_caller
    now_used = sorted(KEPT.keys() - unused)
    assert not now_used, "in KEPT, but the program uses them: %s" % now_used


def test_the_package_imports_only_the_standard_library():
    # the pipeline is stdlib-only: an absolute import names a standard
    # module or moycalc itself, and relative imports stay in the package
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {"%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "moycalc"}
    assert not outside, sorted(outside)
