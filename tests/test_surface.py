"""Every definition of the package runs on a program path, or is listed
with a reason.

The gate runs the program under ``sys.setprofile`` and records every
package code object that is called:

- each benchmark workload's ``run``, ``check`` and ``digest`` on its first
  6 items at seed 1, and open-random's ``run`` and ``check`` on item 6;
- ``cli.main`` for every command, bare and with each of its flags, on a
  closed theta, an open arc, a closed-webs text and a links text;
- ``cli.main`` on error texts: a parse error, a crossing outside
  ``bracket``, an open diagram given to ``homology``, a stuck link, and
  ``homology`` on a closed web whose search stops at its budget;
- ``selftest --n-max 3``, as text and as JSON;
- the README's library example.

Every module-level function and every method, dunders included, must run
there or be listed in ``NOT_RUN`` with a reason.  A reason names an
acceptance criterion of test_acceptance.py, a named test oracle, a
``perfbench/tracing.py`` binding, or the ROADMAP item that owns the
decision.  A listed definition that runs fails the gate as well, so the
list cannot go stale.  No program path changes a value, so the one
refusal that the nine value classes share, ``poly._Immutable``'s
``__setattr__`` and ``__delattr__``, is listed.  Classes keep a name
check: each is used by a NAME token in the package outside its
definition, or in perfbench.
"""

import ast
import contextlib
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

import moycalc
from moycalc import cli, diagram, mf, moybracket
from moycalc.homology import HomologyResult
from moycalc.laurent import LaurentPoly
from moycalc.mf import ExplicitMF, KoszulMF, KoszulRow, MFSum, SparseMat
from moycalc.poly import Poly
from moycalc.quotient import QuotientRing
from test_reduce import _load_workloads

SRC = Path(moycalc.__file__).resolve().parent
ROOT = SRC.parents[1]

# definitions that no program path runs, each with the acceptance
# criterion (test_acceptance.py), test oracle, perfbench/tracing.py binding
# or ROADMAP item that keeps it
IMMUTABLE = ("poly._Immutable's one refusal for every value class, of "
             "test_every_value_class_refuses_assignment")
NOT_RUN = {
    "diagram.CrossingComplex.__init__": "criterion 11's crossing complex",
    "diagram.CrossingComplex.positions": "criterion 11's positions",
    "diagram.crossing_complex": "criterion 11's crossing complex",
    "homology.HomologyResult.__eq__":
        "the homology comparison of test_eliminator_oracle.py::"
        "test_homology_stable_under_reduction",
    "homology._graded_ranks": "ROADMAP item 10: no corpus summand with rows "
                              "has a finite base",
    "homology._module_basis": "ROADMAP item 10, with _graded_ranks",
    "laurent.LaurentPoly.evaluate_at_one": "criterion 3's total dimension",
    "laurent.LaurentPoly.exact_div": "criterion 2's [n][n-1]/[2]",
    "mf.ExplicitMF.__eq__": "criterion 9's matrix equations",
    "mf.ExplicitMF.translate": "criterion 9's translation laws",
    "mf.KoszulMF.flip_row":
        "the oracle of test_reduce.py::test_side_a_exclusion_matches_the_"
        "flipped_row: side a against side b of the flipped row",
    "mf.KoszulMF.translate": "criterion 8's translation invariance and "
                             "criterion 11's crossing complex",
    "mf.KoszulRow.flipped": "flip_row's row, for test_reduce.py::"
                            "test_side_a_exclusion_matches_the_flipped_row",
    "mf.SparseMat.__eq__": "criterion 9's matrix equations",
    "mf.SparseMat.__getitem__":
        "the dense lists of test_mf.py::test_two_row_tensor_block_matrices",
    "mf.SparseMat.__init__": "the checked constructor of criterion 9's "
                             "signed permutations",
    "mf.SparseMat.__matmul__": "criterion 9's commutation law",
    "mf._ProductTables.__init__": "ROADMAP item 18: the two-square verifier",
    "mf._ProductTables.product": "ROADMAP item 18: the two-square verifier",
    "mf._check_homogeneity": "ROADMAP item 18: the two-square verifier",
    "mf._check_scalar": "ROADMAP item 18: the two-square verifier",
    "mf._product_omega": "ROADMAP item 18: the two-square verifier",
    "mf._negated": "ExplicitMF.translate's negation, criterion 9",
    "mf.koszul_new": "the one-row constructor of criterion 9",
    "moybracket.expand_crossings": "perfbench/tracing.py binds it by name "
                                   "for moybracket.resolutions",
    "poly._Immutable.__delattr__": IMMUTABLE,
    "poly._Immutable.__setattr__": IMMUTABLE,
    "poly.Poly.diff": "the partial derivatives of criteria 2 and 3",
    "poly._overflow": "the refusal of test_poly.py::"
                      "test_overflow_is_refused_never_wrapped",
    "poly.exact_div": "the division of test_diagram.py::"
                      "test_primitive_matches_the_dividing_reference",
    "quotient.QuotientRing._reduce_graded_piece":
        "the cyclic-rule fallback of test_quotient.py::"
        "test_rewriting_cycle_falls_back_to_linear_algebra",
    "reduce.scale_row": "criterion 8's row rescaling invariance",
    "reduce.split_free_module":
        "every copy that replay re-runs in test_reduce.py::"
        "test_replay_reproduces_auto_reduce_exactly; the search builds "
        "copy 0 alone",
    "symm._monic_rule": "the Jacobi algebra of criteria 2 and 3",
    "symm.jacobi_algebra": "the Jacobi algebra of criteria 2 and 3",
}
REASON = re.compile(r"criteri(on|a) \d|test_\w+|perfbench/tracing\.py"
                    r"|ROADMAP item \d")

THETA = ("n 3\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\nglue x3 x1\n"
         "glue x4 x2\n")
ARC = "n 3\narc x1 x2\n"
FLAGS = {"build": ["--json", "--show-rows"],
         "reduce": ["--json", "--show-rows"],
         "euler": ["--json", "--signed-euler"],
         "homology": ["--json", "--signed-euler"],
         "bracket": ["--json"]}


def _definitions():
    """{(file, first line): qualified name} of every module-level function
    and every method; the first line is a code object's, so a decorated
    definition starts at its first decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                items = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                items = [(item, "%s.%s" % (node.name, item.name))
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for item, name in items:
                first = min([item.lineno] + [d.lineno
                                             for d in item.decorator_list])
                out[(str(path), first)] = "%s.%s" % (path.stem, name)
    return out


def _program_paths(tmp_path):
    """Run every program path the module docstring lists."""
    workloads = _load_workloads()
    for work in workloads.WORKLOADS.values():
        for item in workloads.corpus(work, 1, 6):
            try:
                result = work.run(item.text)
            except cli.DOMAIN_ERRORS:
                continue
            work.check(item, result)
            work.digest(result)
    # open-random item 6 is the one seed-1 item whose search checks a
    # staircase (quotient._verify_staircase)
    work = workloads.WORKLOADS["open-random"]
    item = workloads.corpus(work, 1, 7)[6]
    work.check(item, work.run(item.text))
    web = workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, 8)[7]
    link, = workloads.corpus(workloads.WORKLOADS["links"], 1, 1)
    # among these runs, every command but bracket refuses the link's
    # crossings, and euler and homology refuse the open arc
    texts = {"theta": THETA, "arc": ARC, "web": web.text, "link": link.text}
    runs = [[command, name] + flags
            for name in texts
            for command, options in FLAGS.items()
            for flags in [[]] + [[flag] for flag in options]]
    errors = {
        "parse": "n 3\narc x1\n",
        # the closure of (s2 s1)^3: no rewrite applies to its all-wide
        # resolution (ROADMAP item 6)
        "stuck": workloads._closure_text(4, 3,
                                         [("xplus", 1), ("xplus", 0)] * 3),
        # the closure of (W1 W0)^2 stops at the search budget, so homology
        # reaches the explicit complex of a summand with rows and refuses
        # it there
        "unbounded": workloads._closure_text(3, 3,
                                             [("wide", 1), ("wide", 0)] * 2)}
    runs += [[command, "parse"] for command in FLAGS]
    runs += [["bracket", "stuck"], ["homology", "unbounded"],
             ["selftest", "--n-max", "3"],
             ["selftest", "--n-max", "3", "--json"]]
    for name, text in {**texts, **errors}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in runs:
        if argv[0] != "selftest":
            argv[1] = str(tmp_path / argv[1])
        cli.main(argv)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for source in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(source, "README.md", "exec"), {})


def test_every_definition_runs_on_a_program_path(tmp_path):
    # a cache an earlier test filled would hide the calls that fill it
    for cached in (diagram._template, mf._layout, moybracket._product):
        cached.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            _program_paths(tmp_path)
    finally:
        sys.setprofile(None)
    resolved = {name: str(Path(name).resolve())
                for name in {name for name, _ in called}}
    called = {(resolved[name], line) for name, line in called}
    definitions = _definitions()
    ran = {name for key, name in definitions.items() if key in called}
    not_run = sorted(set(definitions.values()) - ran - NOT_RUN.keys())
    assert not not_run, "run on no program path: %s" % not_run
    listed_but_run = sorted(ran & NOT_RUN.keys())
    assert not listed_but_run, "in NOT_RUN, but they run: %s" % listed_but_run
    unknown = sorted(NOT_RUN.keys() - set(definitions.values()))
    assert not unknown, "in NOT_RUN, but not defined: %s" % unknown
    unreasoned = sorted(name for name, reason in NOT_RUN.items()
                        if not REASON.search(reason))
    assert not unreasoned, "no criterion, oracle, binding or item: %s" % (
        unreasoned)


VALUES = [Poly(), LaurentPoly(), QuotientRing(), KoszulRow(Poly(), Poly()),
          KoszulMF(), MFSum([]), SparseMat(0, 0),
          ExplicitMF([], [], SparseMat(0, 0), SparseMat(0, 0)),
          HomologyResult()]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_every_value_class_refuses_assignment(value):
    # assigning a slot the class has or a name it does not, and deleting
    # the slot, are all refused, and the value keeps its slot
    slot = type(value).__slots__[0]
    kept = getattr(value, slot)
    for change in (lambda: setattr(value, slot, None),
                   lambda: setattr(value, "other", None),
                   lambda: delattr(value, slot)):
        with pytest.raises(AttributeError) as e:
            change()
        assert str(e.value) == "%s is immutable" % type(value).__name__
    assert getattr(value, slot) is kept


def _name_tokens(path):
    """{(name, line)} of the Python NAME tokens in a file: code, not its
    comments, docstrings or strings."""
    with open(path, "rb") as fh:
        return {(tok.string, tok.start[0])
                for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME}


def test_every_class_is_used_outside_the_tests():
    # a use is a NAME token in the package outside the class's definition
    # line and __init__.py, or in perfbench/*.py
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).add((path, node.lineno))
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= {name for name, line in _name_tokens(path)
                     if (path, line) not in classes.get(name, ())}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= {name for name, _ in _name_tokens(path)}
    unused = sorted(classes.keys() - used)
    assert not unused, "no use outside the tests: %s" % unused


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
