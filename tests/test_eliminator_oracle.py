"""The sparse eliminator against sympy: normal forms, ranks, staircases.

sympy is a test-only oracle; these tests are skipped without it.
"""

import random
from fractions import Fraction

import pytest

from moycalc.poly import Poly
from moycalc.quotient import (QuotientRing, TriangularityViolation, echelon,
                              reduce_vector)
from moycalc.symm import jacobi_algebra

sympy = pytest.importorskip("sympy")

Y1, Y2, Z1 = ("y", 1), ("y", 2), ("z", 1)


def v(name):
    return Poly.var(name)


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p, symbols):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = rational(c)
        for var, e in mono:
            term *= symbols[var] ** e
        out += term
    return out


def ideal(ring):
    """sympy symbols and the Groebner basis of the ring's rule ideal."""
    variables = set()
    for var, _, repl in ring.rules:
        variables |= {var} | repl.variables()
    symbols = {var: sympy.Symbol("%s%d" % var) for var in sorted(variables)}
    gens = [to_sympy(Poly.var(var, d) - repl, symbols)
            for var, d, repl in ring.rules]
    return symbols, sympy.groebner(gens, *symbols.values(), order="grevlex",
                                   domain="QQ")


def random_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple((var, e) for var in variables
                     if (e := rng.randint(0, 6)))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(terms)


def cyclic_ring():
    # test_quotient's rewriting cycle: y1 and z1 rewrite into each other
    return (QuotientRing()
            .with_rule(Y1, 3, 2 * v(Y1) * v(Z1))
            .with_rule(Z1, 2, v(Y1) ** 2 * v(Z1)))


@pytest.mark.parametrize("name", ["jacobi-3", "jacobi-4", "jacobi-5",
                                  "jacobi-6", "cyclic"])
def test_normal_form_matches_groebner(name):
    ring = (cyclic_ring() if name == "cyclic"
            else jacobi_algebra(int(name.split("-")[1])))
    symbols, basis = ideal(ring)
    rng = random.Random(name)
    for _ in range(25):
        p = random_poly(rng, (Y1, Z1))
        nf = ring.normal_form(p)
        assert basis.contains(to_sympy(nf - p, symbols))
        for var, d, _ in ring.rules:
            assert nf.degree_in(var) < d
    if name == "cyclic":
        # the rewrite chain looped, so the eliminator made these forms
        assert ring._pivot_cache


def test_echelon_rank_matches_sympy():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        vectors = [{j: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                rng.randint(1, 4))
                    for j in range(cols) if rng.random() < 0.4}
                   for _ in range(rows)]
        if rows > 1:
            # a dependent row, so that ranks fall short of the row count
            a, b = rng.sample(vectors, 2)
            combo = {j: a.get(j, 0) - 2 * b.get(j, 0) for j in set(a) | set(b)}
            vectors.append({j: c for j, c in combo.items() if c})
        pivots = echelon(vectors)
        dense = sympy.Matrix([[rational(vec.get(j, Fraction(0)))
                               for j in range(cols)]
                              for vec in vectors])
        assert len(pivots) == dense.rank()
        for lead, row in pivots.items():
            assert min(row) == lead and row[lead] == 1
        for vec in vectors:
            assert not reduce_vector(vec, pivots)


def quotient_dimension(ring):
    """Dimension of a two-variable quotient per sympy; None if infinite."""
    symbols, basis = ideal(ring)
    if not basis.is_zero_dimensional:
        return None
    gens = list(symbols.values())
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0]
             for g in basis.exprs]
    bound = max(sum(m) for m in leads) + 1
    count = 0
    for i in range(bound):
        for j in range(bound):
            if not any(i >= a and j >= b for a, b in leads):
                count += 1
    return count


def test_broken_staircase_is_rejected():
    # y1^2 -> a*y1*y2, y2^2 -> b*y1*y2 is cyclic; its staircase {1, y1, y2,
    # y1*y2} is a basis exactly when the quotient has dimension 4
    verdicts = set()
    for a, b in ((1, 1), (-1, -1), (2, Fraction(1, 2)), (2, 1), (1, 3),
                 (-1, 2)):
        first = QuotientRing().with_rule(Y1, 2, a * v(Y1) * v(Y2))
        try:
            ring = first.with_rule(Y2, 2, b * v(Y1) * v(Y2))
        except TriangularityViolation as exc:
            assert "staircase" in str(exc)
            ring = QuotientRing(first.rules + ((Y2, 2, b * v(Y1) * v(Y2)),))
            accepted = False
        else:
            accepted = True
        assert accepted == (quotient_dimension(ring) == 4), (a, b)
        verdicts.add(accepted)
    assert verdicts == {True, False}
