"""Every function, class and method of the package has a caller outside
the tests: a name only tests use is dead surface, or belongs in a test."""

import ast
import re
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


def test_every_definition_has_a_caller_outside_the_tests():
    # a use is a whole-word occurrence of the name in the package outside
    # its definition lines and __init__.py, in perfbench/ or in the README
    program = [(path, k, line)
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"
               for k, line in enumerate(
                   path.read_text(encoding="utf-8").splitlines(), 1)]
    elsewhere = "\n".join(
        [p.read_text(encoding="utf-8")
         for p in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "README.md").read_text(encoding="utf-8")])
    unused = set()
    for name, lines in _definitions().items():
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not (word.search(elsewhere)
                or any(word.search(line) for path, k, line in program
                       if (path, k) not in lines)):
            unused.add(name)
    no_caller = sorted(unused - KEPT.keys())
    assert not no_caller, "no caller outside the tests: %s" % no_caller
    now_used = sorted(KEPT.keys() - unused)
    assert not now_used, "in KEPT, but the program uses them: %s" % now_used
