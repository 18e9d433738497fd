"""Sparse polynomial arithmetic, ordering, and exact division."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import moycalc
from moycalc import quotient
from moycalc.poly import (NonExactDivision, Poly, exact_div, mono_degree,
                          mono_div, mono_mul, mono_sort_key,
                          monomials_of_degree)

X1, X2, Y1, Z1 = ("x", 1), ("x", 2), ("y", 1), ("z", 1)


def v(name):
    return Poly.var(name)


def rand_poly(rng, variables, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        for var in variables:
            e = rng.randint(0, max_exp)
            if e:
                mono.append((var, e))
        mono.sort(key=lambda it: (it[0][0], it[0][1]))
        terms[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return Poly(terms)


def test_zero_and_constants():
    assert Poly().is_zero()
    assert Poly.const(0).is_zero()
    p = Poly.const(Fraction(3, 2))
    assert p.terms == {(): Fraction(3, 2)}
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
        for var, e in mono:
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
    for m in ((), ((X1, 2),), ((X1, 1), (Y1, 3), (Z1, 1))):
        assert mono_mul(m, ()) == m == mono_mul((), m)


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
    assert type(third.terms[()]) is Fraction
    q = exact_div(6 * v(X1) * v(X2), 3 * v(X1))
    assert q.terms == {((X2, 1),): 2}
    assert type(q.terms[((X2, 1),)]) is int


def test_exact_div_failure():
    with pytest.raises(NonExactDivision):
        exact_div(v(X1) + Poly.const(1), v(X2))


def test_monomial_order_graded_lex():
    # degree first, then x1 > x2 > y1 > z1
    x1 = ((X1, 1),)
    x2 = ((X2, 1),)
    z1 = ((Z1, 1),)
    sq = ((X1, 2),)
    assert mono_sort_key(x1) > mono_sort_key(x2)
    assert mono_sort_key(sq) > mono_sort_key(x1)
    assert mono_sort_key(z1) > mono_sort_key(x1)     # deg 4 beats deg 2
    assert mono_sort_key(sq) == mono_sort_key(((X1, 2),))


def test_str_deterministic():
    p = v(X2) + v(X1) + v(Z1)
    assert str(p) == "z1 + x1 + x2"


def _obeys_policy(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def _fractions(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(a, e):
    out = {(): Fraction(1)}
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
            out = _ref_add(out, {tuple(sorted(exp.items())): c * e})
    return out


def _ref_substitute(a, var, b):
    out = {}
    for mono, c in a.items():
        exp = dict(mono)
        e = exp.pop(var, 0)
        rest = {tuple(sorted(exp.items())): c}
        out = _ref_add(out, _ref_mul(rest, _ref_pow(b, e)))
    return out


def test_coefficient_policy_property():
    """Every result holds ints and non-integral Fractions only, and equals
    the same computation done in Fraction arithmetic."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-6, max_value=6,
                                    max_denominator=4))
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 1)).map(
        lambda es: tuple((var, e) for var, e in zip((X1, X2, Z1), es) if e))
    polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, coeffs, st.integers(0, 3))
    def check(a, b, c, e):
        fa, fb = _fractions(a), _fractions(b)
        results = [
            (a + b, _ref_add(fa, fb)),
            (a - b, _ref_add(fa, {m: -x for m, x in fb.items()})),
            (a * b, _ref_mul(fa, fb)),
            (a * c, _ref_mul(fa, {(): Fraction(c)})),
            (a ** e, _ref_pow(fa, e)),
            (a.substitute({X1: b}), _ref_substitute(fa, X1, fb)),
            (a.diff(X1), _ref_diff(fa, X1)),
        ]
        if not b.is_zero():
            results.append((exact_div(a * b, b), fa))
        for got, want in results:
            assert _obeys_policy(got)
            assert _fractions(got) == want

    check()


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Poly({(): 0.5})
    with pytest.raises(TypeError):
        Poly.const(0.5)
    for combine in (lambda p: p + 0.5, lambda p: p - 0.5, lambda p: p * 0.5,
                    lambda p: 0.5 * p):
        with pytest.raises(TypeError):
            combine(v(X1))


def test_negative_powers_are_refused():
    # x1^-2 is no monomial: its degree would be -4, and times x1^2 it
    # would leave x1^0 rather than 1
    with pytest.raises(ValueError):
        Poly.var(X1, -2)
    with pytest.raises(ValueError):
        v(X1) ** -1
    assert Poly.var(X1, 0) == Poly.const(1)


def _is_monomial(mono):
    variables = [var for var, _ in mono]
    return (all(a < b for a, b in zip(variables, variables[1:]))
            and all(type(e) is int and e > 0 for _, e in mono))


def test_every_monomial_keeps_the_layout():
    """Variables strictly increase as plain tuples and exponents are
    positive, in every monomial the arithmetic and the quotient build.
    Indices reach 12, so x2 < x10 tests the int ordering of indices."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = st.tuples(st.sampled_from("xyz"), st.integers(1, 12))
    exponents = st.dictionaries(variables, st.integers(1, 3), max_size=4)
    monos = exponents.map(lambda exp: tuple(sorted(exp.items())))
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
        built = [product, mono_div(m1, m2) or ()]   # None: m2 does not divide
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


def test_only_poly_reads_the_monomial_layout():
    src = Path(moycalc.__file__).parent
    # the layout's internals, a monomial literal ((v, e),) handed to a
    # mono_* function or a Poly, or a loop over a monomial's pairs
    pattern = re.compile(r"var_key|KIND_RANK|_flat_key|dict\(mono"
                         r"|(mono_\w+\(|Poly\(\{).*\(\(\w+, \w+\),\)"
                         r"|, _ in mono\b")
    offenders = ["%s:%d" % (path.name, i)
                 for path in sorted(src.glob("*.py")) if path.name != "poly.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offenders
