"""Triangular quotient rings: rules, normal forms, graded dimensions."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from moycalc import quotient
from moycalc.diagram import glue, parse_diagram
from moycalc.poly import (UNIT, Poly, mono_div, mono_exponent, mono_mul,
                          mono_power, mono_sort_key, monomials_of_degree)
from moycalc.quotient import (InfiniteDimension, QuotientRing,
                              TriangularityViolation, echelon)
from moycalc.laurent import LaurentPoly
from moycalc.reduce import auto_reduce
from test_reduce import _load_workloads

X1, X2, Y1, Z1 = ("x", 1), ("x", 2), ("y", 1), ("z", 1)


def v(name):
    return Poly.var(name)


def test_simple_truncation():
    ring = QuotientRing().with_rule(X1, 3, Poly())
    assert ring.normal_form(v(X1) ** 3).is_zero()
    assert ring.normal_form(v(X1) ** 7).is_zero()
    assert ring.normal_form(v(X1) ** 2) == v(X1) ** 2
    assert ring.graded_dimension() == LaurentPoly({0: 1, 2: 1, 4: 1})


def test_rule_with_replacement():
    # y^3 -> 2*y*z, z^2 -> y^2*z (the n=4 relations)
    ring = (QuotientRing()
            .with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
            .with_rule(Z1, 2, v(Y1) ** 2 * v(Z1)))
    nf = ring.normal_form
    # y^3*z reduces: y^3 z -> 2 y z^2 -> 2 y^3 z -> ... must terminate
    p = nf(v(Y1) ** 3 * v(Z1))
    assert nf(p) == p                      # idempotent
    assert nf(v(Y1) ** 3) == 2 * v(Y1) * v(Z1)


def test_normal_form_is_ring_homomorphism():
    ring = (QuotientRing()
            .with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
            .with_rule(Z1, 2, v(Y1) ** 2 * v(Z1)))
    nf = ring.normal_form
    rng = random.Random(5)

    def rand():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = UNIT
            for var in (Y1, Z1):
                mono = mono_mul(mono, mono_power(var, rng.randint(0, 4)))
            terms[mono] = Fraction(rng.randint(-4, 4))
        return Poly(terms)

    for _ in range(40):
        a, b = rand(), rand()
        assert nf(a + b) == nf(nf(a) + nf(b))
        assert nf(a * b) == nf(nf(a) * nf(b))
        assert nf(nf(a)) == nf(a)


def test_rule_conflicts_rejected():
    ring = QuotientRing().with_rule(X1, 3, Poly())
    with pytest.raises(TriangularityViolation):
        ring.with_rule(X1, 2, Poly())


def test_merge():
    r1 = QuotientRing().with_rule(X1, 3, Poly())
    r2 = QuotientRing().with_rule(Y1, 2, Poly())
    merged = r1.merge(r2)
    assert merged.normal_form(v(X1) ** 3 + v(Y1) ** 2).is_zero()
    with pytest.raises(TriangularityViolation):
        r1.merge(QuotientRing().with_rule(X1, 2, Poly()))


def test_substitute_variable():
    ring = QuotientRing().with_rule(Y1, 3, Poly())
    out = ring.substitute(Z1, v(Y1) ** 2)      # no z rule: nothing changes
    assert out.normal_form(v(Y1) ** 3).is_zero()
    assert out is ring      # no replacement contains z1: nothing rebuilt


def test_graded_dimension_product():
    ring = (QuotientRing()
            .with_rule(Y1, 2, Poly())
            .with_rule(Z1, 2, Poly()))
    # (1 + q^2)(1 + q^4)
    assert ring.graded_dimension() == LaurentPoly({0: 1, 2: 1, 4: 1, 6: 1})
    assert ring.graded_dimension(-3) == LaurentPoly(
        {-3: 1, -1: 1, 1: 1, 3: 1})


def test_echelon_divides_by_the_pivot_exactly():
    pivots = echelon([{0: 2, 1: 3, 2: 4}])
    assert pivots == {0: {0: 1, 1: Fraction(3, 2), 2: 2}}
    assert [type(c) for c in pivots[0].values()] == [int, Fraction, int]


def test_basis_monomials_bounded():
    ring = QuotientRing().with_rule(Y1, 2, Poly())
    assert len(ring.basis_monomials()) == 2
    with pytest.raises(InfiniteDimension):
        ring.basis_monomials(ambient={Z1})


def test_relation_echelon_puts_reducible_columns_first():
    rules = [(Z1, 2, v(Y1) ** 2 * v(Z1)), (Y1, 3, 2 * v(Y1) * v(Z1))]
    variables = [X1, ("x", 2), Y1, Z1]
    columns, reducible, _ = quotient._relation_echelon(rules, variables, 12)
    assert set(columns) == set(monomials_of_degree(variables, 12))

    def is_reducible(m):
        return any(mono_exponent(m, w) >= d for w, d, _ in rules)

    assert 0 < reducible < len(columns)
    assert all(map(is_reducible, columns[:reducible]))
    assert not any(map(is_reducible, columns[reducible:]))
    for group in (columns[:reducible], columns[reducible:]):
        keys = [mono_sort_key(m) for m in group]
        assert keys == sorted(set(keys), reverse=True)


def test_rewriting_cycle_falls_back_to_linear_algebra():
    # These two rules make naive single-step rewriting cycle; normal_form
    # must still terminate and stay a projection.
    ring = (QuotientRing()
            .with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
            .with_rule(Z1, 2, v(Y1) ** 2 * v(Z1)))
    nf = ring.normal_form
    p = nf(v(Z1) ** 4)
    assert nf(p) == p
    assert ring.graded_dimension().evaluate_at_one() == 6


def test_replacement_messages_name_the_variable():
    with pytest.raises(TriangularityViolation,
                       match=r"^replacement for x1\^2 not homogeneous$"):
        QuotientRing().with_rule(X1, 2, v(Y1) + v(Z1))
    with pytest.raises(TriangularityViolation,
                       match=r"^replacement for x1\^2 has wrong degree$"):
        QuotientRing().with_rule(X1, 2, v(Y1))


def test_unbounded_cycle_message_ignores_hash_seed():
    # y1 and y2 reach each other through x1, x2, x3 and x4, none of which
    # is bounded; the message must name the least of them on every run
    script = (
        "from moycalc.poly import Poly\n"
        "from moycalc.quotient import QuotientRing, TriangularityViolation\n"
        "x = [None] + [Poly.var(('x', i)) for i in range(1, 5)]\n"
        "y1, y2 = Poly.var(('y', 1)), Poly.var(('y', 2))\n"
        "ring = QuotientRing().with_rule(('y', 1), 2,\n"
        "                                y2 * (x[1] + x[2] + x[4]))\n"
        "try:\n"
        "    ring.with_rule(('y', 2), 2, y1 * (x[1] + x[3]))\n"
        "except TriangularityViolation as e:\n"
        "    print(e)\n")
    src = str(Path(quotient.__file__).resolve().parents[1])
    messages = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        messages.add(run.stdout)
    assert messages == {"cyclic rules through unbounded variable x1\n"}


class _PerMonomialNormalForm:
    """normal_form as it was before the staircase test: every monomial,
    normal or not, goes through the memo, and a rewrite multiplies the
    monomial's cofactor into the replacement.  A test-side reference with
    its own memo."""

    def __init__(self, ring):
        self.ring, self.cache, self.stack = ring, {}, set()

    def __call__(self, p):
        if not self.ring.rules or p.is_zero():
            return p
        acc = {}
        for mono, coeff in p.terms.items():
            for m, c in self.mono(mono).terms.items():
                acc[m] = acc.get(m, 0) + c * coeff
        return Poly(acc)

    def mono(self, mono):
        cached = self.cache.get(mono)
        if cached is not None:
            return cached
        target = None
        for w, d, repl in self.ring.rules:
            if mono_exponent(mono, w) >= d:
                target = (w, d, repl)
                break
        if target is None:
            result = Poly({mono: 1})
        elif mono in self.stack:
            result = self.ring._reduce_graded_piece(Poly({mono: 1}))
        else:
            self.stack.add(mono)
            try:
                w, d, repl = target
                rest = mono_div(mono, mono_power(w, d))
                result = self(Poly({rest: 1}) * repl)
            finally:
                self.stack.discard(mono)
        self.cache[mono] = result
        return result


def _rings():
    """The rings of this file's tests, the cyclic one included (its
    rewriting falls back to _reduce_graded_piece), and one with Fraction
    coefficients and a leader in its own replacement."""
    cyclic = (QuotientRing()
              .with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
              .with_rule(Z1, 2, v(Y1) ** 2 * v(Z1)))
    mixed = (QuotientRing()
             .with_rule(X1, 2, Fraction(1, 2) * v(X1) * v(X2) - v(Y1) ** 2)
             .with_rule(X2, 3, 3 * v(X2) * v(Y1) ** 2 + v(Z1) * v(Y1)))
    return [QuotientRing().with_rule(X1, 3, Poly()),
            QuotientRing().with_rule(X1, 3, Poly()).merge(
                QuotientRing().with_rule(Y1, 2, Poly())),
            QuotientRing().with_rule(Y1, 2, Poly()).with_rule(Z1, 2, Poly()),
            cyclic, mixed]


def _random_poly(rng, variables, top=5):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = UNIT
        for var in variables:
            mono = mono_mul(mono, mono_power(var, rng.randint(0, top)))
        terms[mono] = rng.choice([rng.randint(-4, 4), Fraction(
            rng.randint(-4, 4), rng.randint(1, 3))])
    return Poly(terms)


def _is_reducible(ring, mono):
    return any(mono_exponent(mono, w) >= d for w, d, _ in ring.rules)


def test_normal_form_equals_the_per_monomial_loop():
    rng = random.Random(38)
    variables = [X1, X2, Y1, Z1]
    for ring in _rings():
        # an equal ring of its own, so that the two memos stay apart
        reference = _PerMonomialNormalForm(QuotientRing(ring.rules))
        for _ in range(150):
            p = _random_poly(rng, variables)
            got = ring.normal_form(p)
            assert got.terms == reference(p).terms, (ring, p)
            # the memo holds reducible monomials only
            assert all(_is_reducible(ring, m) for m in ring._nf_cache)
        # the rewriting cycles exactly on the cyclic ring, where the
        # graded-piece fallback ran
        cyclic = ring.rules[0][2].variables() == {Y1, Z1}
        assert bool(ring._pivot_cache) == cyclic, ring


def test_normal_input_comes_back_as_it_is():
    rng = random.Random(39)
    variables = [X1, X2, Y1, Z1]
    for ring in _rings() + [QuotientRing()]:
        for _ in range(60):
            p = ring.normal_form(_random_poly(rng, variables))
            assert ring.normal_form(p) is p
            normal = Poly({m: c for m, c in _random_poly(
                rng, variables).terms.items() if not _is_reducible(ring, m)})
            assert ring.normal_form(normal) is normal
        assert ring.normal_form(Poly()).is_zero()
    # a normal input leaves the memo as it was
    ring = _rings()[3]
    ring.normal_form(v(Y1) ** 2 * v(Z1) + v(Y1))
    assert not ring._nf_cache


def test_merge_adds_the_rules_in_normal_form():
    # x2^2 -> x1^2 is not normal over x1^2 -> 0: merge adds it as
    # with_rule does, so both rings are the same quotient and compare equal
    ruled = QuotientRing().with_rule(X1, 2, Poly())
    merged = ruled.merge(QuotientRing().with_rule(X2, 2, v(X1) ** 2))
    assert merged.rules == ((X1, 2, Poly()), (X2, 2, Poly()))
    assert merged == ruled.with_rule(X2, 2, v(X1) ** 2)
    assert ruled.merge(QuotientRing()) is ruled
    assert ruled.merge(ruled) == ruled
    with pytest.raises(TriangularityViolation) as e:
        ruled.merge(QuotientRing().with_rule(X1, 3, Poly()))
    assert str(e.value) == "conflicting rules on x1"


def test_normal_forms_lie_below_every_staircase(monkeypatch):
    # with_rule checks a normalized replacement against its own leader
    # only: no monomial of a normal form, _reduce_graded_piece's included,
    # is reducible by any rule of its ring, on every ring that auto_reduce
    # visits (on 40 items of each workload, enough rings to clear the
    # floor) and on the cyclic ring
    normal_form = QuotientRing.normal_form
    rings = {}

    def checked(ring, p):
        out = normal_form(ring, p)
        offset, high = ring._staircase
        assert all(not (m + offset) & high for m in out.terms), (ring, p)
        rings[id(ring)] = ring
        return out

    monkeypatch.setattr(QuotientRing, "normal_form", checked)
    workloads = _load_workloads()
    for name in ("closed-webs", "open-random"):
        for item in workloads.corpus(workloads.WORKLOADS[name], 1, 40):
            auto_reduce(glue(parse_diagram(item.text)))
    assert sum(bool(ring.rules) for ring in rings.values()) > 100
    rng = random.Random(40)
    cyclic = _rings()[3]
    for _ in range(150):
        cyclic.normal_form(_random_poly(rng, [X1, X2, Y1, Z1]))
    assert cyclic._pivot_cache
