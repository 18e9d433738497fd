"""
Command-line front end.

  moycalc build FILE       print the glued factorization
  moycalc reduce FILE      auto-reduce and print the canonical summands
  moycalc euler FILE       graded Euler characteristic of a closed diagram
  moycalc homology FILE    both Poincare polynomials
  moycalc bracket FILE     rewrite-based graph evaluation (crossings allowed)
  moycalc selftest         consistency checks for a range of n

Exit status: 0 success, 1 domain error (a ``DomainError``, which every
package exception is, or an unreadable file), 2 usage error.
"""

import argparse
import json
import sys

from .diagram import DiagramError, glue, parse_diagram, require_closed
from .homology import euler_characteristic, graded_homology
from .laurent import quantum_integer
from .moybracket import (MOYGraph, StuckGraph, all_path_values,
                         bracket_text, double_loop_value)
from .poly import DomainError
from .quotient import InfiniteDimension
from .reduce import auto_reduce, canonical_form

DOMAIN_ERRORS = (DomainError, OSError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DOMAIN_ERRORS as exc:
        where = getattr(args, "file", None)
        prefix = "%s: " % where if where else ""
        print("error: %s%s" % (prefix, exc), file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="moycalc",
        description="factorizations and bracket values of planar diagrams")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        return p

    p = add("build", _cmd_build, help="print the glued factorization")
    p.add_argument("file")
    p.add_argument("--show-rows", action="store_true")

    p = add("reduce", _cmd_reduce, help="auto-reduce and print summands")
    p.add_argument("file")
    p.add_argument("--show-rows", action="store_true")

    p = add("euler", _cmd_euler, help="graded Euler characteristic")
    p.add_argument("file")
    p.add_argument("--signed-euler", action="store_true",
                   help="emit poincare0 - poincare1")

    p = add("homology", _cmd_homology, help="both Poincare polynomials")
    p.add_argument("file")
    p.add_argument("--signed-euler", action="store_true")

    p = add("bracket", _cmd_bracket, help="graph rewrite evaluation")
    p.add_argument("file")

    p = add("selftest", _cmd_selftest, help="consistency checks")
    p.add_argument("--n-max", type=_n_max, default=6)

    return parser


def _n_max(text):
    """--n-max N: the checks run for n = 3..N, so N < 3 would check nothing."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n < 3:
        raise argparse.ArgumentTypeError("must be at least 3, not %d" % n)
    return n


def _read_text(args):
    """The text of args.file, which must be UTF-8; a leading byte-order
    mark is dropped."""
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DiagramError("not UTF-8 text (%s)" % exc) from None


def _read_diagram(args):
    return parse_diagram(_read_text(args))


def _print_summand(mf, show_rows):
    print("rows: %d  shift: {%d}  parity: <%d>"
          % (len(mf.rows), mf.shift, mf.parity))
    if show_rows:
        for row in mf.rows:
            print("  %s" % row)
        for v, d, p in mf.base.rules:
            print("  rule: %s%d^%d -> %s" % (v[0], v[1], d, p))


def _cmd_build(args):
    diagram = _read_diagram(args)
    mf = glue(diagram)
    if args.json:
        doc = {"n": diagram.n, "rows": [str(r) for r in mf.rows],
               "shift": mf.shift, "parity": mf.parity,
               "potential": str(mf.potential())}
        print(json.dumps(doc, indent=2))
    else:
        _print_summand(mf, args.show_rows)
        print("potential: %s" % mf.potential())
    return 0


def _cmd_reduce(args):
    diagram = _read_diagram(args)
    reduced, trace = auto_reduce(glue(diagram))
    if args.json:
        doc = {"n": diagram.n, "steps": len(trace), "summands": []}
        for mf in reduced:
            cf = canonical_form(mf)
            doc["summands"].append({
                "rows": [str(r) for r in cf.rows],
                "rules": ["%s%d^%d -> %s" % (v[0], v[1], d, p)
                          for v, d, p in cf.base.rules],
                "shift": cf.shift, "parity": cf.parity})
        print(json.dumps(doc, indent=2))
        return 0
    print("steps: %d  summands: %d" % (len(trace), len(reduced)))
    for k, mf in enumerate(reduced):
        print("summand %d:" % k)
        _print_summand(canonical_form(mf), args.show_rows)
    return 0


def _homology_doc(args):
    return _homology_of(_read_text(args), args.signed_euler, args.command)


def _homology_of(text, signed, command):
    """(n, euler, homology, steps) of a closed diagram's text; command names
    the caller in the error for an open diagram."""
    diagram = parse_diagram(text)
    mf = glue(diagram)    # a crossing is refused first
    require_closed(diagram, command)
    reduced, trace = auto_reduce(mf)
    try:
        hom = graded_homology(reduced)
    except InfiniteDimension as exc:
        exc.args = ("%s (%s)" % (exc, _where(diagram, exc.variable)),)
        raise
    euler = euler_characteristic(hom, signed=signed)
    return diagram.n, euler, hom, len(trace)


def _where(diagram, variable):
    """The identifier that names variable's parameter class, numbered as
    class_variables numbers it, and the line of the piece that writes it."""
    cls, info = list(diagram.classes.items())[variable[1] - 1]
    p = next(use[0] for use in (info["in"], info["out"])
             if use and use[0].params[use[1]] == cls)
    return "edge %s, line %d" % (cls, p.line)


def _json_doc(n, euler, hom, steps):
    return {"n": n, "euler": euler.to_json(),
            "parity0": hom.poincare0.to_json(),
            "parity1": hom.poincare1.to_json(), "steps": steps}


def _cmd_euler(args):
    n, euler, hom, steps = _homology_doc(args)
    if args.json:
        print(json.dumps(_json_doc(n, euler, hom, steps), indent=2))
    else:
        print(euler)
    return 0


def _cmd_homology(args):
    n, euler, hom, steps = _homology_doc(args)
    if args.json:
        print(json.dumps(_json_doc(n, euler, hom, steps), indent=2))
    else:
        print(hom)
        print("euler: %s" % euler)
    return 0


def _cmd_bracket(args):
    try:
        value = bracket_text(_read_text(args))
    except StuckGraph as exc:
        exc.args = ("no relation applies; residual graph of the pieces at "
                    "lines %s" % ", ".join(map(str, exc.lines)),)
        raise
    if args.json:
        print(json.dumps({"bracket": value.to_json()}, indent=2))
    else:
        print(value)
    return 0


CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"
THETA = ("n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
         "glue x3 x1\nglue x4 x2\n")


def _cmd_selftest(args):
    def euler(text):
        return _homology_of(text, False, "selftest")[1]

    checks = []
    failures = 0
    for n in range(3, args.n_max + 1):
        qn = quantum_integer(n)
        dval = double_loop_value(n)

        def run(label, fn, expect):
            nonlocal failures
            try:
                got = fn()
                ok = got == expect
            except DOMAIN_ERRORS as exc:
                got, ok = "error: %s" % exc, False
            failures += 0 if ok else 1
            checks.append({"n": n, "check": label, "pass": ok,
                           "got": str(got), "want": str(expect)})

        run("circle euler", lambda: euler(CIRCLE % n), qn)
        run("double circle euler", lambda: euler(DCIRCLE % n), dval)
        run("circle bracket", lambda: bracket_text(CIRCLE % n), qn)
        run("double circle bracket", lambda: bracket_text(DCIRCLE % n), dval)
        run("theta bracket", lambda: bracket_text(THETA % n),
            qn * quantum_integer(n - 1))
        run("theta confluence",
            lambda: all_path_values(
                MOYGraph.from_diagram(parse_diagram(THETA % n))),
            {qn * quantum_integer(n - 1)})
        run("theta euler", lambda: euler(THETA % n),
            qn * quantum_integer(n - 1))
    if args.json:
        print(json.dumps({"checks": checks, "failures": failures}, indent=2))
    else:
        for c in checks:
            print("%s  n=%d %s (got %s, want %s)"
                  % ("PASS" if c["pass"] else "FAIL", c["n"], c["check"],
                     c["got"], c["want"]))
        print("%d checks, %d failures" % (len(checks), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
