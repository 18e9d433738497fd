"""Sparse polynomial arithmetic, ordering, and exact division."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import moycalc
from moycalc import quotient
from moycalc.laurent import LaurentPoly
from moycalc.poly import (UNIT, W, MonomialOverflow, NonExactDivision, Poly,
                          exact_div, mono_degree, mono_div, mono_exponent,
                          mono_mul, mono_power, mono_sort_key, mono_variables,
                          monomials_of_degree, staircase, var_degree)

X1, X2, Y1, Z1 = ("x", 1), ("x", 2), ("y", 1), ("z", 1)


def v(name):
    return Poly.var(name)


def packed(exponents):
    """The monomial of (variable, exponent) pairs, built through poly."""
    mono = UNIT
    for var, e in exponents:
        mono = mono_mul(mono, mono_power(var, e))
    return mono


def pairs(mono):
    """mono's (variable, exponent) pairs, variables increasing."""
    return [(var, mono_exponent(mono, var)) for var in mono_variables(mono)]


def rand_poly(rng, variables, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = packed([(var, rng.randint(0, max_exp)) for var in variables])
        terms[mono] = Fraction(rng.randint(-5, 5))
    return Poly(terms)


def test_zero_and_constants():
    assert Poly().is_zero()
    assert Poly.const(0).is_zero()
    p = Poly.const(Fraction(3, 2))
    assert p.terms == {UNIT: Fraction(3, 2)}
    assert (p - p).is_zero()


def test_degrees():
    assert v(X1).degree() == 2
    assert v(Z1).degree() == 4
    p = v(X1) ** 3 + v(Z1) * v(X2)
    assert p.degree() == 6
    assert p.is_homogeneous()
    q = v(X1) + v(Z1)
    assert not q.is_homogeneous()
    assert {mono_degree(m) for m in q.terms} == {2, 4}


def test_arithmetic_ring_axioms():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, [X1, X2, Y1])
        b = rand_poly(rng, [X1, X2, Y1])
        c = rand_poly(rng, [X1, X2, Y1])
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly()


def test_substitute():
    p = v(X1) ** 2 + v(X2)
    q = p.substitute({X1: v(X2), X2: v(X1)})
    assert q == v(X2) ** 2 + v(X1)
    # simultaneous, not sequential
    r = (v(X1) * v(X2)).substitute({X1: v(X2), X2: v(X1)})
    assert r == v(X1) * v(X2)


def _substitute_reference(p, mapping):
    # term by term in ring arithmetic: every variable is replaced at once
    out = Poly()
    for mono, coeff in p.terms.items():
        term = Poly.const(coeff)
        for var, e in pairs(mono):
            term = term * (mapping[var] if var in mapping else v(var)) ** e
        out = out + term
    return out


def test_substitute_two_variables_simultaneously():
    rng = random.Random(11)
    for _ in range(40):
        p = rand_poly(rng, [X1, X2, Y1])
        # each replacement mentions the other substituted variable
        b = v(X1) * rand_poly(rng, [X1, X2, Y1]) + v(X2)
        c = v(X2) * rand_poly(rng, [X2, Z1]) + v(X1)
        mapping = {X1: b, X2: c}
        assert p.substitute(mapping) == _substitute_reference(p, mapping)
    # x1 -> x2 + x1 and x2 -> x1 together, not one after the other
    p = v(X1) ** 2 * v(X2)
    got = p.substitute({X1: v(X1) + v(X2), X2: v(X1)})
    assert got == (v(X1) + v(X2)) ** 2 * v(X1)


def test_mono_mul_by_the_unit_monomial():
    for m in (UNIT, packed([(X1, 2)]), packed([(X1, 1), (Y1, 3), (Z1, 1)])):
        assert mono_mul(m, UNIT) == m == mono_mul(UNIT, m)


def test_renamed_matches_substitute():
    rng = random.Random(7)
    maps = [{X1: X2, X2: X1}, {X1: X2}, {X2: X1, Y1: Z1}, {Z1: X1}]
    for _ in range(40):
        p = rand_poly(rng, [X1, X2, Y1, Z1])
        for mapping in maps:
            want = p.substitute({a: v(b) for a, b in mapping.items()})
            assert p.renamed(mapping) == want
    # coinciding names add exponents and merge coefficients, to zero here
    p = v(X1) * v(X2) - v(X2) ** 2 + 3 * v(X1)
    assert p.renamed({X2: X1}) == 3 * v(X1)


def test_partial_derivative():
    p = v(X1) ** 3 * v(X2) + v(X2) ** 2
    assert p.diff(X1) == 3 * v(X1) ** 2 * v(X2)
    assert p.diff(X2) == v(X1) ** 3 + 2 * v(X2)


def test_exact_div_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_poly(rng, [X1, X2])
        b = rand_poly(rng, [X1, X2])
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a


def test_exact_div_difference_quotient():
    p = v(X1) ** 4 - v(X2) ** 4
    q = exact_div(p, v(X1) - v(X2))
    assert q * (v(X1) - v(X2)) == p


def test_exact_div_quotient_coefficients_obey_the_policy():
    third = exact_div(v(X1), 3 * v(X1))
    assert third == Fraction(1, 3)
    assert type(third.terms[UNIT]) is Fraction
    q = exact_div(6 * v(X1) * v(X2), 3 * v(X1))
    assert q.terms == {mono_power(X2, 1): 2}
    assert type(q.terms[mono_power(X2, 1)]) is int


def test_exact_div_failure():
    with pytest.raises(NonExactDivision):
        exact_div(v(X1) + Poly.const(1), v(X2))


def test_monomial_order_graded_lex():
    # degree first, then x1 > x2 > y1 > z1
    x1 = mono_power(X1, 1)
    x2 = mono_power(X2, 1)
    z1 = mono_power(Z1, 1)
    sq = mono_power(X1, 2)
    assert mono_sort_key(x1) > mono_sort_key(x2)
    assert mono_sort_key(sq) > mono_sort_key(x1)
    assert mono_sort_key(z1) > mono_sort_key(x1)     # deg 4 beats deg 2
    assert mono_sort_key(sq) == mono_sort_key(mono_mul(x1, x1))


def test_str_deterministic():
    p = v(X2) + v(X1) + v(Z1)
    assert str(p) == "z1 + x1 + x2"


def _obeys_policy(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


# The reference keeps its own monomials: frozensets of (variable, exponent)
# pairs, read from each Poly through mono_variables and mono_exponent, so
# that no reference product goes through poly's layout.

def _ref_mono(exp):
    """The reference monomial of an exponent dict {variable: exponent}."""
    return frozenset((var, e) for var, e in exp.items() if e)


def _fractions(p):
    return {frozenset(pairs(m)): Fraction(c) for m, c in p.terms.items()}


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exp = dict(m1)
            for var, e in m2:
                exp[var] = exp.get(var, 0) + e
            m = _ref_mono(exp)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(a, e):
    out = {_ref_mono({}): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a, var):
    out = {}
    for mono, c in a.items():
        exp = dict(mono)
        e = exp.pop(var, 0)
        if e > 1:
            exp[var] = e - 1
        if e:
            out = _ref_add(out, {_ref_mono(exp): c * e})
    return out


def _ref_substitute(a, var, b):
    out = {}
    for mono, c in a.items():
        exp = dict(mono)
        e = exp.pop(var, 0)
        rest = {_ref_mono(exp): c}
        out = _ref_add(out, _ref_mul(rest, _ref_pow(b, e)))
    return out


def _ref_renamed(a, mapping):
    out = {}
    for mono, c in a.items():
        exp = {}
        for var, e in mono:
            target = mapping.get(var, var)
            exp[target] = exp.get(target, 0) + e
        out = _ref_add(out, {_ref_mono(exp): c})
    return out


def _ref_order_key(mono):
    # graded lex from the pairs alone: degree first, then x1 > x2 > ...
    # > y1 > ... > z1, an earlier variable with a higher exponent larger
    weight = {"x": 2, "y": 2, "z": 4}
    degree = sum(weight[kind] * e for (kind, _), e in mono)
    lex = tuple((-"xyz".index(kind), -index, e)
                for (kind, index), e in sorted(mono))
    return degree, lex


def test_coefficient_policy_property():
    """Every result holds ints and non-integral Fractions only, and equals
    the same computation done in Fraction arithmetic on the reference's own
    monomials; the monomial order equals a sort of the decoded pairs."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-6, max_value=6,
                                    max_denominator=4))
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 1)).map(
        lambda es: packed(zip((X1, X2, Z1), es)))
    polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)
    # x1 -> x2 meets x2 itself; x2 -> z1 raises the degree and meets z1
    renames = [{X1: X2}, {X1: X2, X2: Z1}, {X1: X2, X2: X1}]

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, coeffs, st.integers(0, 3))
    def check(a, b, c, e):
        fa, fb = _fractions(a), _fractions(b)
        results = [
            (a + b, _ref_add(fa, fb)),
            (a - b, _ref_add(fa, {m: -x for m, x in fb.items()})),
            (a * b, _ref_mul(fa, fb)),
            (a * c, _ref_mul(fa, {_ref_mono({}): Fraction(c)})),
            (a ** e, _ref_pow(fa, e)),
            (a.substitute({X1: b}), _ref_substitute(fa, X1, fb)),
            (a.diff(X1), _ref_diff(fa, X1)),
        ]
        results.extend((a.renamed(mapping), _ref_renamed(fa, mapping))
                       for mapping in renames)
        if not b.is_zero():
            results.append((exact_div(a * b, b), fa))
        for got, want in results:
            assert _obeys_policy(got)
            assert _fractions(got) == want
        for p in (a, a * b):
            got = [frozenset(pairs(m))
                   for m in sorted(p.terms, key=mono_sort_key)]
            assert got == sorted(_fractions(p), key=_ref_order_key)

    check()


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Poly({UNIT: 0.5})
    with pytest.raises(TypeError):
        Poly.const(0.5)
    for combine in (lambda p: p + 0.5, lambda p: p - 0.5, lambda p: p * 0.5,
                    lambda p: 0.5 * p):
        with pytest.raises(TypeError):
            combine(v(X1))


# each number and what both classes make of it: the int or Fraction it
# is, or the error it raises
POLICY = [(0, 0), (3, 3), (True, 1), (False, 0), (Fraction(4, 2), 2),
          (Fraction(1, 2), Fraction(1, 2)), (0.5, TypeError),
          (3.0, TypeError), ("3", TypeError)]


@pytest.mark.parametrize("c, want", POLICY, ids=lambda x: getattr(
    x, "__name__", repr(x)))
def test_one_number_policy_for_both_polynomial_classes(c, want):
    for cls, p in ((Poly, v(X1)), (LaurentPoly, LaurentPoly({1: 1}))):
        ways = [lambda: cls.const(c), lambda: cls({UNIT: c}),
                lambda: p + c, lambda: p - c, lambda: p * c]
        if cls is LaurentPoly:
            # a Laurent exponent is a number under the same policy
            ways.append(lambda: LaurentPoly({c: 1}))
            if type(want) is Fraction:
                want = ValueError    # a Laurent term is integral
        if isinstance(want, type):
            for way in ways:
                with pytest.raises(want):
                    way()
            continue
        k = cls({UNIT: want})
        got = [way() for way in ways]
        expected = [k, k, p + k, p + (-k), p * k]
        if cls is LaurentPoly:
            expected.append(LaurentPoly({want: 1}))
        assert got == expected
        assert all(_obeys_policy(value) for value in got)
        assert type(got[0].terms.get(UNIT, 0)) is type(want)


def test_negative_powers_are_refused():
    # x1^-2 is no monomial: its degree would be -4, and times x1^2 it
    # would leave x1^0 rather than 1
    with pytest.raises(ValueError):
        Poly.var(X1, -2)
    with pytest.raises(ValueError):
        v(X1) ** -1
    assert Poly.var(X1, 0) == Poly.const(1)


def test_large_powers_need_no_recursion():
    # a power one level of recursion per exponent would pass the
    # interpreter's recursion limit here
    assert v(X1) ** 5000 == Poly.var(X1, 5000)
    # a power is the half power squared, times the base when the exponent
    # is odd, and only the powers that recursion makes are cached
    p = v(X1) - 2 * v(Y1)
    assert p ** 9 == p * p * p * p * p * p * p * p * p
    assert sorted(p._powers) == [2, 4, 9]
    # every power equals the repeated product, over Fraction coefficients
    # and for a LaurentPoly
    for base in (Fraction(1, 3) * v(X1) - 2 * v(Y1),
                 LaurentPoly({-1: 2, 3: -1})):
        product = type(base).const(1)
        for e in range(41):
            assert base ** e == product, e
            product = product * base
        assert all(q == base ** (e - 1) * base
                   for e, q in base._powers.items())


def _is_monomial(mono):
    found = pairs(mono)
    variables = [var for var, _ in found]
    return (type(mono) is int and mono >= 0
            and all(a < b for a, b in zip(variables, variables[1:]))
            and all(type(e) is int and 0 < e < 2 ** (W - 1) for _, e in found)
            and mono_degree(mono) < 2 ** (W - 1)
            and mono_degree(mono) == sum(var_degree(var) * e
                                         for var, e in found)
            and packed(found) == mono)


def test_every_monomial_keeps_the_layout():
    """In every monomial the arithmetic and the quotient build, the degree
    field is the weighted sum of the decoded exponents, every field is
    below the limit, and decoding then re-encoding gives the same int; the
    decoded variables strictly increase as plain tuples.  Indices reach 12,
    so x2 < x10 tests the int ordering of indices."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = st.tuples(st.sampled_from("xyz"), st.integers(1, 12))
    exponents = st.dictionaries(variables, st.integers(1, 3), max_size=4)
    monos = exponents.map(lambda exp: packed(exp.items()))
    polys = st.dictionaries(monos, st.integers(-3, 3), max_size=4).map(Poly)
    # few targets, so that renamed variables often coincide
    targets = st.sampled_from([X1, X2, ("x", 10), Y1, Z1])
    renames = st.dictionaries(variables, targets, max_size=4)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(monos, monos, polys, polys, variables, renames,
                      exponents, st.integers(0, 12))
    def check(m1, m2, a, b, var, rename, bounds, degree):
        product = mono_mul(m1, m2)
        assert mono_div(product, m2) == m1
        built = [product, mono_div(m1, m2) or UNIT]  # None: m2 does not divide
        for p in (a.renamed(rename), a.diff(var), a.substitute({var: b})):
            built.extend(p.terms)
        ring = quotient.QuotientRing()
        for leader, d in bounds.items():    # leaders out of order
            ring = ring.with_rule(leader, d, Poly())
        basis = ring.basis_monomials()
        assert len(set(basis)) == len(basis)
        built.extend(basis)
        built.extend(monomials_of_degree(sorted(bounds), degree))
        for mono in built:
            assert _is_monomial(mono), mono

    check()


def test_staircase_is_divisibility_by_a_rule_power():
    # nine variables in nine adjacent fields (x1, y1, z1, x2, ...), so
    # every rule field has a neighbour in the monomial that a carry would
    # change; exponents reach the limit a monomial's degree allows, and
    # the powers run from 1 to past any exponent
    pool = [(kind, i) for i in (1, 2, 3) for kind in "xyz"]
    limit = 2 ** (W - 1)
    rng = random.Random(38)
    hits = 0
    for case in range(3000):
        rules = {var: rng.choice([1, 2, rng.randint(1, 9),
                                  rng.randint(1, limit // 4)])
                 for var in rng.sample(pool, rng.randint(1, 5))}
        budget = limit - 1
        exponents = []
        for var in rng.sample(pool, len(pool)):
            top = budget // var_degree(var)
            d = rules.get(var, 1)
            e = min(top, rng.choice([0, 1, d - 1, d, d + 1, top,
                                     rng.randint(0, top)]))
            budget -= e * var_degree(var)
            exponents.append((var, e))
        mono = packed(exponents)
        offset, high = staircase(rules.items())
        divisible = any(mono_exponent(mono, var) >= d
                        for var, d in rules.items())
        assert bool((mono + offset) & high) == divisible, (rules, exponents)
        hits += divisible
    # a single variable at its largest exponent, ruled and not
    top = mono_power(X1, limit // 2 - 1)
    for d in (1, limit // 2 - 1, limit // 2):
        offset, high = staircase([(X1, d), (Y1, 1)])
        assert bool((top + offset) & high) == (d <= limit // 2 - 1)
    assert 0 < hits < 3000


# the spellings of the monomial layout that only poly may use: the
# layout's internals, a monomial literal ((v, e),) handed to a mono_*
# function or a Poly, a loop over a monomial's pairs, an empty-tuple
# monomial, and the names of the packing internals
LAYOUT = re.compile(r"var_key|KIND_RANK|_flat_key|dict\(mono"
                    r"|(mono_\w+\(|Poly\(\{).*\(\(\w+, \w+\),\)"
                    r"|, _ in mono\b"
                    r"|[\[{]\(\)[\]:,]|mono_\w+\([^)]*(?<![\w)\]])\(\)"
                    r"|\b(W|_MASK|_LIMIT|_shift|_fields|_occupied)\b")


def test_only_poly_reads_the_monomial_layout():
    src = Path(moycalc.__file__).parent
    offenders = ["%s:%d" % (path.name, i)
                 for path in sorted(src.glob("*.py")) if path.name != "poly.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if LAYOUT.search(line)]
    assert not offenders


@pytest.mark.parametrize("line", [
    "out = [()]", "Poly({(): c})", "mono_mul(m, ())", "mono_div((), m)",
    "mono_mul(m, ((v, e),))", "Poly({((v, 1),): 1})", "for v, _ in mono:",
    "exp = dict(mono)", "KIND_RANK[kind]", "poly.W", "m >> s & _MASK",
    "if m & _LIMIT:", "_shift(v)", "_fields(m)", "p._occupied()"])
def test_the_layout_guard_refuses(line):
    assert LAYOUT.search(line)


@pytest.mark.parametrize("line", [
    "by_col.get(j, ())", "def basis_monomials(self, ambient=()):",
    "out = [UNIT]", "Poly()", "mono_mul(m, mono_power(v, e))",
    "return row.internal_shift", "zeros = tuple()"])
def test_the_layout_guard_passes(line):
    assert not LAYOUT.search(line)


def test_constants_hash_as_their_coefficient():
    for c in (0, 3, -7, Fraction(3, 2), Fraction(-1, 3), Fraction(4, 2)):
        p = Poly.const(c)
        assert p == c and hash(p) == hash(c)
        assert p in {c} and c in {p}
    assert Poly() == 0 and hash(Poly()) == hash(0) and Poly() in {0}
    assert {Poly.const(2): "two"}[2] == "two"
    assert v(X1) not in {0, 1, Fraction(1, 2)}


def test_numbers_compare_with_the_constant_term_and_never_raise():
    # a bool is the int it is; no Poly is built from the number
    assert Poly() == False and Poly() in [False]
    assert Poly.const(1) == True and Poly.const(1) != False
    assert Poly.const(2) == Fraction(2) and Poly.const(2) != Fraction(1, 2)
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert Poly() != 1 and Poly.const(3) != 0
    assert v(X1) != 1 and v(X1) != True and v(X1) != Fraction(1, 2)
    assert v(X1) + 1 != 1


def test_overflow_is_refused_never_wrapped():
    limit = 2 ** (W - 1)
    # the first power of x1 at the limit, and the last one below it
    with pytest.raises(MonomialOverflow):
        Poly.var(X1, 2 ** (W - 2))
    with pytest.raises(MonomialOverflow):
        mono_power(Z1, 2 ** (W - 3))
    top = Poly.var(X1, 2 ** (W - 2) - 1)
    assert top.degree() == limit - 2
    assert top * Poly.const(3) == 3 * top
    with pytest.raises(MonomialOverflow):
        top * v(X1)
    with pytest.raises(MonomialOverflow):
        mono_mul(mono_power(X1, 2 ** (W - 2) - 1), mono_power(Y1, 1))
    with pytest.raises(MonomialOverflow):
        monomials_of_degree([X1], limit)
    # fields just below the limit keep their neighbours intact
    m = mono_mul(mono_power(X1, 2 ** (W - 3)), mono_power(Y1, 2 ** (W - 3) - 1))
    assert pairs(m) == [(X1, 2 ** (W - 3)), (Y1, 2 ** (W - 3) - 1)]
    assert mono_degree(m) == limit - 2
    half = Poly.var(X1, 2 ** (W - 3))           # degree 2^(W-2)
    with pytest.raises(MonomialOverflow):
        half ** 2
    with pytest.raises(MonomialOverflow):
        half * half
    # substitute: in the power of a replacement, and in the kept monomial
    # times the substituted part
    quarter = Poly.var(Z1, 2 ** (W - 4))         # degree 2^(W-2)
    with pytest.raises(MonomialOverflow):
        (v(X1) ** 2).substitute({X1: quarter})
    with pytest.raises(MonomialOverflow):
        (v(X1) * Poly.var(X2, 2 ** (W - 3))).substitute({X1: quarter})
    # renaming x to z doubles the degree of x's power
    with pytest.raises(MonomialOverflow):
        half.renamed({X1: Z1})
    below = Poly.var(X1, 2 ** (W - 3) - 1).renamed({X1: Z1})
    assert below == Poly.var(Z1, 2 ** (W - 3) - 1)
    assert below.degree() == limit - 4


def test_cli_reports_an_overflow_as_a_domain_error(tmp_path):
    # at W = 32 no diagram of workable size reaches the limit (an arc's
    # factorization has degree 2n, so n would be near 2^30); the child
    # narrows the fields to 8 bits, where n = 70's arc, of degree 140,
    # does.  A child process, so that nothing built at 8 bits outlives it.
    path = tmp_path / "arc.moy"
    path.write_text("n 70\narc x1 x2\n")
    child = ("import sys\n"
             "from moycalc import poly\n"
             "poly.W, poly._MASK, poly._LIMIT = 8, (1 << 8) - 1, 1 << 7\n"
             "from moycalc.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = Path(moycalc.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", child, "build", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: %s: monomial degree " % path)
    assert lines[0].endswith("is not below 2^7")
