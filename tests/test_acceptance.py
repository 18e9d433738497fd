"""Acceptance gate: the eleven checks the package must pass exactly.

Every comparison is exact (Laurent-polynomial or canonical-form equality,
zero tolerance) and every criterion enforces its runtime budget.  Each test
prints one PASS/FAIL line.
"""

import functools
import math
import random
import time

from fractions import Fraction

from moycalc.diagram import (build_primitive, boundary_potential,
                             class_variables, crossing_complex, glue,
                             parse_diagram)
from moycalc.homology import euler_characteristic, graded_homology
from moycalc.laurent import LaurentPoly, quantum_integer
from moycalc.mf import SparseMat, koszul_new, verify_factorization
from moycalc.moybracket import (MOYGraph, _bigon_matches, _digon_matches,
                                bracket, all_path_values)
from moycalc.poly import Poly
from moycalc.reduce import auto_reduce, canonical_form, scale_row
from moycalc.symm import jacobi_algebra, power_sum_expand

CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"
THETA = ("n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
         "glue x3 x1\nglue x4 x2\n")


def criterion(number, label, seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print("FAIL criterion %2d: %s" % (number, label))
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < seconds, \
                "criterion %d took %.2fs (budget %.0fs)" % (number, elapsed,
                                                            seconds)
            print("PASS criterion %2d: %s (%.2fs)" % (number, label, elapsed))
        return wrapper
    return deco


def _reduce(text):
    return auto_reduce(glue(parse_diagram(text)))[0]


def _double_loop_value(n):
    return (quantum_integer(n) * quantum_integer(n - 1)).exact_div(
        quantum_integer(2))


@criterion(1, "single loop reduces to Q[x]/x^n {1-n}<1> with euler [n]", 1)
def test_criterion_1():
    for n in range(2, 7):
        reduced = _reduce(CIRCLE % n)
        assert len(reduced) == 1
        m = reduced.summands[0]
        assert m.rows == ()
        assert len(m.base.rules) == 1
        (_, power, repl), = m.base.rules
        assert power == n and repl.is_zero()
        assert m.shift == 1 - n
        assert m.parity == 1
        assert euler_characteristic(graded_homology(m)) == quantum_integer(n)


@criterion(2, "double loop reduces over the Jacobi algebra with euler "
              "[n][n-1]/[2]", 2)
def test_criterion_2():
    for n in range(3, 7):
        reduced = _reduce(DCIRCLE % n)
        assert len(reduced) == 1
        m = reduced.summands[0]
        assert m.rows == ()
        assert m.shift == 4 - 2 * n
        assert m.parity == 0
        assert m.base.graded_dimension() == \
            jacobi_algebra(n).graded_dimension()
        assert euler_characteristic(graded_homology(m)) == \
            _double_loop_value(n)


@criterion(3, "Jacobi algebra has the printed monomial staircase", 2)
def test_criterion_3():
    for n in range(3, 9):
        ring = jacobi_algebra(n)
        if n % 2 == 0:
            powers = {("y", 1): n - 1, ("z", 1): n // 2}
        else:
            powers = {("y", 1): n, ("z", 1): (n - 1) // 2}
        assert {v: d for v, d, _ in ring.rules} == powers
        expected = LaurentPoly({0: 1})
        for v, d in powers.items():
            w = 2 if v[0] == "y" else 4
            expected = expected * LaurentPoly({w * k: 1 for k in range(d)})
        assert ring.graded_dimension() == expected
        assert ring.graded_dimension().evaluate_at_one() == n * (n - 1) // 2


@criterion(4, "power sums: f(x+y, xy) identity and closed binomial form", 1)
def test_criterion_4():
    X1, X2 = ("x", 1), ("x", 2)
    for n in range(1, 9):
        f = power_sum_expand(n)
        sub = f.substitute({("y", 1): Poly.var(X1) + Poly.var(X2),
                            ("z", 1): Poly.var(X1) * Poly.var(X2)})
        assert sub == Poly.var(X1, n + 1) + Poly.var(X2, n + 1)
    for n in range(1, 13):
        closed = Poly.var(("y", 1), n + 1)
        for i in range(1, (n + 1) // 2 + 1):
            c = Fraction((-1) ** i * (n + 1) * math.comb(n - i, i - 1), i)
            closed = closed + (Poly.var(("y", 1), n + 1 - 2 * i)
                               * Poly.var(("z", 1), i) * c)
        assert power_sum_expand(n) == closed


@criterion(5, "an inserted double-line marker reduces away", 2)
def test_criterion_5():
    plain = "n %d\ndline d1 d2\n"
    marked = "n %d\ndline d1 d2\ndline d3 d4\nglue d3 d2\n"
    for n in range(3, 6):
        target = canonical_form(glue(parse_diagram(plain % n)))
        reduced = _reduce(marked % n)
        assert len(reduced) == 1
        assert canonical_form(reduced.summands[0]) == target


@criterion(6, "vin/vout composition reduces to the wide-edge rows", 2)
def test_criterion_6():
    text = "n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
    for n in range(3, 6):
        d = parse_diagram(text % n)
        reduced = auto_reduce(glue(d))[0]
        assert len(reduced) == 1
        composed = reduced.summands[0]
        assert composed.shift == -1

        assign = class_variables(d)
        cls = {name: assign[d.class_of(name)]
               for name in ("x1", "x2", "x3", "x4")}
        wide = build_primitive("wide", n, (cls["x3"], cls["x4"],
                                           cls["x1"], cls["x2"]))
        assert canonical_form(composed) == canonical_form(wide)


@criterion(7, "double-line bubble splits as dline{-1} + dline{+1}", 2)
def test_criterion_7():
    text = ("n %d\nvout d1 x1 x2\nvin x3 x4 d2\n"
            "glue x1 x3\nglue x2 x4\n")
    for n in range(3, 6):
        d = parse_diagram(text % n)
        reduced = auto_reduce(glue(d))[0]
        assert len(reduced) == 2
        parts = sorted(reduced.summands, key=lambda m: m.shift)
        assign = class_variables(d)
        dline = build_primitive(
            "dline", n, (assign[d.class_of("d2")], assign[d.class_of("d1")]))
        for part, shift in zip(parts, (-1, 1)):
            assert part.shift - shift == dline.shift
            assert canonical_form(part) == canonical_form(
                dline.shifted(shift))


_PIECES = {
    "arc": ("single", "single"),
    "wide": ("single",) * 4,
    "dline": ("double", "double"),
    "vin": ("single", "single", "double"),
    "vout": ("double", "single", "single"),
}
_ROLES = {
    "arc": ("in", "out"),
    "wide": ("out", "out", "in", "in"),
    "dline": ("out", "in"),
    "vin": ("in", "in", "out"),
    "vout": ("in", "out", "out"),
}


def _random_diagram(rng):
    n = rng.randint(3, 5)
    lines = ["n %d" % n]
    counters = {"single": 0, "double": 0}
    uses = {("single", "in"): [], ("single", "out"): [],
            ("double", "in"): [], ("double", "out"): []}
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(sorted(_PIECES))
        params = []
        for slot, role in zip(_PIECES[kind], _ROLES[kind]):
            counters[slot] += 1
            name = ("x%d" if slot == "single" else "d%d") % counters[slot]
            params.append(name)
            uses[(slot, role)].append(name)
        lines.append("%s %s" % (kind, " ".join(params)))
    for slot in ("single", "double"):
        outs = uses[(slot, "out")][:]
        ins = uses[(slot, "in")][:]
        rng.shuffle(outs)
        rng.shuffle(ins)
        take = rng.randint(0, min(len(outs), len(ins)))
        for p, q in list(zip(outs, ins))[:take]:
            lines.append("glue %s %s" % (p, q))
    return "\n".join(lines) + "\n"


@criterion(8, "d1*d0 = potential*Id on primitives and random diagrams", 30)
def test_criterion_8():
    n = 4
    params = {
        "arc": (("x", 1), ("x", 2)),
        "wide": (("x", 1), ("x", 2), ("x", 3), ("x", 4)),
        "dline": ((("y", 1), ("z", 1)), (("y", 2), ("z", 2))),
        "vin": (("x", 1), ("x", 2), (("y", 3), ("z", 3))),
        "vout": ((("y", 3), ("z", 3)), ("x", 1), ("x", 2)),
    }
    for kind, ps in params.items():
        mf = build_primitive(kind, n, ps)
        assert verify_factorization(mf.to_explicit()) == mf.potential()

    rng = random.Random(2024)
    for _ in range(100):
        d = parse_diagram(_random_diagram(rng))
        pieces = [build_primitive(p.kind, d.n,
                                  [class_variables(d)[d.class_of(name)]
                                   for name in p.params])
                  for p in d.pieces]
        mf = glue(d)
        # additivity under tensor
        total = Poly()
        for piece in pieces:
            total = total + piece.potential()
        assert mf.potential() == total == boundary_potential(d)
        # invariance under scale_row and translation
        if mf.rows:
            assert scale_row(mf, 0, 7).potential() == mf.potential()
        assert mf.translate().potential() == mf.potential()
        # the explicit form squares to the same potential
        assert verify_factorization(mf.to_explicit()) == mf.potential()
        # exclusions preserve the potential on every summand
        for summand in auto_reduce(mf)[0]:
            assert summand.potential() == mf.potential()


def _basis_labels(k):
    b0, b1 = [()], []
    for _ in range(k):
        b0, b1 = ([b + (0,) for b in b0] + [b + (1,) for b in b1],
                  [b + (0,) for b in b1] + [b + (1,) for b in b0])
    return b0, b1


def _swap_matrices(k1, k2):
    """The signed permutation m x n -> (-1)^{|m||n|} n x m, slot by slot."""
    mats = []
    for labs in _basis_labels(k1 + k2):
        idx = {lab: r for r, lab in enumerate(labs)}
        ent = {}
        for c, lab in enumerate(labs):
            em, en = lab[:k1], lab[k1:]
            sign = -1 if (sum(em) * sum(en)) % 2 else 1
            ent[(idx[en + em], c)] = Poly.const(sign)
        mats.append(SparseMat(len(labs), len(labs), ent))
    return mats


def _random_row(rng):
    var = rng.choice([("x", 1), ("x", 2), ("x", 3), ("y", 1)])
    a = Poly.var(var, rng.randint(1, 3)) * rng.choice((1, 2, -1))
    b = Poly.var(var, rng.randint(1, 2))
    return koszul_new(a, b)


def _random_mf(rng, rows):
    m = _random_row(rng)
    for _ in range(rows - 1):
        m = m @ _random_row(rng)
    return m


@criterion(9, "translation and commutation laws hold as matrix equations", 5)
def test_criterion_9():
    rng = random.Random(99)
    # <1> squares to the identity
    for _ in range(5):
        e = _random_mf(rng, rng.randint(1, 3)).to_explicit()
        assert e.translate().translate() == e
    # K(a; b)<1> = K(-b; -a){(deg b - deg a)/2}
    for _ in range(5):
        m = _random_row(rng)
        row = m.rows[0]
        lhs = m.to_explicit().translate()
        rhs = koszul_new(-row.b, -row.a, deg_a=row.deg_b,
                         deg_b=row.deg_a).shifted(
                             row.internal_shift).to_explicit()
        assert lhs == rhs
    # commutation: signed permutation conjugates M x N into N x M,
    # on random factorizations with 2 and 3 rows in total
    for total in (2, 3):
        for _ in range(8):
            k1 = rng.randint(1, total - 1)
            m, n = _random_mf(rng, k1), _random_mf(rng, total - k1)
            mn, nm = (m @ n).to_explicit(), (n @ m).to_explicit()
            f0, f1 = _swap_matrices(k1, total - k1)
            assert (f1 @ mn.d0).entries == (nm.d0 @ f0).entries
            assert (f0 @ mn.d1).entries == (nm.d1 @ f1).entries
    # association: the iterated construction is strictly associative
    for _ in range(5):
        l, m, n = (_random_row(rng) for _ in range(3))
        assert ((l @ m) @ n).to_explicit() == (l @ (m @ n)).to_explicit()


@criterion(10, "bracket values match the homological euler characteristics",
           2)
def test_criterion_10():
    for n in range(3, 7):
        qn = quantum_integer(n)
        circle = MOYGraph.from_diagram(parse_diagram(CIRCLE % n))
        dcircle = MOYGraph.from_diagram(parse_diagram(DCIRCLE % n))
        theta = MOYGraph.from_diagram(parse_diagram(THETA % n))
        assert bracket(circle) == qn
        assert bracket(dcircle) == _double_loop_value(n)
        # theta along two genuinely different first rewrites
        digons = list(_digon_matches(theta))
        bigons = list(_bigon_matches(theta))
        assert digons and bigons
        theta_value = qn * quantum_integer(n - 1)
        assert bracket(theta, ("digon", digons[0])) == theta_value
        assert bracket(theta, ("bigon", bigons[0])) == theta_value
        assert all_path_values(theta) == {theta_value}
        # agreement with the categorified pipeline
        for text, value in ((CIRCLE % n, qn),
                            (DCIRCLE % n, _double_loop_value(n)),
                            (THETA % n, theta_value)):
            chi = euler_characteristic(graded_homology(_reduce(text)))
            assert chi == value


@criterion(11, "crossing complexes carry the printed shifts and parities", 1)
def test_criterion_11():
    for n in (3, 4, 5):
        pos = crossing_complex("+", n)
        neg = crossing_complex("-", n)
        assert pos.positions() == [-1, 0]
        assert neg.positions() == [0, 1]
        # wide carries its own {-1}, so {n}<1> lands at total shift n - 1
        assert pos.objects[-1].shift == n - 1
        assert pos.objects[0].shift == n - 1
        assert neg.objects[0].shift == 1 - n
        assert neg.objects[1].shift == -n - 1
        for c in (pos, neg):
            pots = set()
            for obj in c.objects.values():
                assert obj.parity == 1
                pots.add(str(obj.potential()))
            assert len(pots) == 1
