"""The sparse eliminator against sympy: normal forms, ranks, staircases,
the ranks of explicit homology, and homology before and after reduction.

sympy is a test-only oracle; these tests are skipped without it.
"""

import random
from fractions import Fraction

import pytest

from moycalc.homology import (HomologyResult, _explicit_homology,
                              euler_characteristic, graded_homology)
from moycalc.laurent import LaurentPoly
from moycalc.mf import KoszulMF, KoszulRow, koszul_new
from moycalc.poly import (UNIT, Poly, mono_degree, mono_exponent, mono_mul,
                          mono_power, mono_variables, monomials_of_degree,
                          var_degree)
from moycalc.quotient import (QuotientRing, TriangularityViolation, echelon,
                              reduce_vector)
from moycalc.reduce import auto_reduce
from moycalc.symm import jacobi_algebra

sympy = pytest.importorskip("sympy")

X1, X2, Y1, Y2, Z1 = ("x", 1), ("x", 2), ("y", 1), ("y", 2), ("z", 1)


def v(name):
    return Poly.var(name)


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p, symbols):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = rational(c)
        for var in mono_variables(mono):
            term *= symbols[var] ** mono_exponent(mono, var)
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
        mono = UNIT
        for var in variables:
            mono = mono_mul(mono, mono_power(var, rng.randint(0, 6)))
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


def dense_homology(mf):
    """Both Poincare series of a finite-base factorization from dense sympy
    ranks: per degree t of M_k, dim - rank of the columns of degree t out
    of M_k - rank of the rows of degree t into M_k."""
    monos = mf.base.basis_monomials(mf.ambient_variables())
    exp = mf.to_explicit()
    bases = [[(mono, j, mono_degree(mono) + g)
              for j, g in enumerate(gens) for mono in monos]
             for gens in (exp.gens0, exp.gens1)]

    def matrix(mat, src, tgt):
        index = {(mono, i): r for r, (mono, i, _) in enumerate(tgt)}
        out = sympy.zeros(len(tgt), len(src))
        for c, (mono, j, _) in enumerate(src):
            for (i, jj), entry in mat.entries.items():
                if jj != j:
                    continue
                image = mf.base.normal_form(entry * Poly({mono: 1}))
                for tmono, coeff in image.terms.items():
                    out[index[(tmono, i)], c] += rational(coeff)
        return out

    d0 = matrix(exp.d0, bases[0], bases[1])
    d1 = matrix(exp.d1, bases[1], bases[0])
    series = []
    for basis, out_map, in_map in ((bases[0], d0, d1), (bases[1], d1, d0)):
        terms = {}
        for t in {deg for _, _, deg in basis}:
            at = [r for r, (_, _, deg) in enumerate(basis) if deg == t]
            terms[t] = (len(at) - out_map[:, at].rank()
                        - in_map[at, :].rank())
        series.append(LaurentPoly(terms))
    return HomologyResult(*series)


def random_residue(rng):
    """A zero-potential factorization with rows over a finite base: either
    the cyclic ring, or monic rules whose replacements use earlier
    variables only."""
    if rng.random() < 0.25:
        base, variables = cyclic_ring(), [Y1, Z1]
    else:
        variables = rng.sample([X1, X2, Y1, Z1], rng.randint(1, 2))
        base = QuotientRing()
        for k, var in enumerate(variables):
            d = rng.randint(1, 3)
            base = base.with_rule(var, d, random_form(
                rng, base, variables[:k], d * var_degree(var)))
    rows = []
    total = rng.choice((2, 4, 6))     # deg a + deg b, the same in every row
    for _ in range(rng.randint(1, 2)):
        da = rng.choice(range(0, total + 1, 2))
        db = total - da
        a = random_form(rng, base, variables, da)
        b = random_form(rng, base, variables, db)
        kind = rng.random()
        if kind < 0.3:
            rows.append(KoszulRow(a, Poly(), da, db))
        elif kind < 0.5:
            rows.append(KoszulRow(Poly(), b, da, db))
        elif kind < 0.8:
            # a pair whose products cancel
            rows += [KoszulRow(a, b, da, db), KoszulRow(-a, b, da, db)]
        elif base.normal_form(a * b).is_zero():
            rows.append(KoszulRow(a, b, da, db))
    mf = KoszulMF(rows, base, shift=rng.randint(-2, 2),
                  parity=rng.randint(0, 1))
    assert mf.potential().is_zero()
    return mf


def random_form(rng, base, variables, degree):
    """A random homogeneous normal form of the given degree."""
    return base.normal_form(Poly({
        mono: rng.choice((-2, -1, 1, 2))
        for mono in monomials_of_degree(sorted(variables), degree)
        if rng.random() < 0.5}))


def test_explicit_homology_matches_dense_ranks():
    # K(0; x1) over Q[x1]/(x1^3): ker x1 = (x1^2) and R/(x1), one each
    m = koszul_new(Poly(), v(X1), QuotientRing().with_rule(X1, 3, Poly()),
                   deg_a=0, deg_b=2)
    h = _explicit_homology(m)
    assert euler_characteristic(h).evaluate_at_one() == 2
    assert h == dense_homology(m)
    rng = random.Random("explicit-homology")
    nonzero = 0
    for _ in range(40):
        m = random_residue(rng)
        if not m.rows:
            continue
        h = _explicit_homology(m)
        assert h == dense_homology(m), m
        nonzero += euler_characteristic(h).evaluate_at_one() != 0
    assert nonzero >= 20


def test_homology_stable_under_reduction():
    # the search's pieces against the unreduced factorization, both read
    # by graded_homology and by dense ranks, over finite bases
    rng = random.Random("reduction-keeps-homology")
    split = 0
    for _ in range(60):
        m = random_residue(rng)
        reduced, trace = auto_reduce(m)
        assert (graded_homology(m) == graded_homology(reduced)
                == dense_homology(m)), m
        split += any(kind == "split" for kind, _ in trace.steps)
    assert split >= 20
