"""Koszul rows, tensor products, and the explicit 2-periodic form."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from moycalc import mf as mf_module
from moycalc.diagram import build_primitive, glue, parse_diagram
from moycalc.poly import Poly
from moycalc.quotient import QuotientRing
from moycalc.mf import (ExplicitMF, KoszulMF, KoszulRow, NotAFactorization,
                        OddShift, SparseMat, _block_form, _block_omega,
                        _product_omega, koszul_new, verify_factorization)
from test_acceptance import _random_diagram
from test_reduce import _load_workloads

X1, X2, X3 = ("x", 1), ("x", 2), ("x", 3)
Y1 = ("y", 1)


def v(var, e=1):
    return Poly.var(var, e)


def _lists(mat):
    """mat as dense lists of rows."""
    return [[mat[(i, j)] for j in range(mat.ncols)] for i in range(mat.nrows)]


def test_row_shift_and_flip():
    row = KoszulRow(v(X1, 3), v(X1), deg_a=6, deg_b=2)
    assert row.internal_shift == -2
    flipped = row.flipped()
    assert flipped.a == -v(X1)
    assert flipped.b == -v(X1, 3)
    assert flipped.deg_a == 2 and flipped.deg_b == 6
    assert flipped.internal_shift == 2

    with pytest.raises(OddShift):
        KoszulRow(Poly(), Poly(), deg_a=1, deg_b=2)


@pytest.mark.parametrize("a, b, degs, error, message", [
    # homogeneity is checked first, pinned degrees or not
    (v(X1) + v(X1, 2), v(X1), {}, ValueError,
     "row entries must be homogeneous"),
    (v(X1), v(X1) + v(Y1, 2), {"deg_a": 4, "deg_b": 2}, ValueError,
     "row entries must be homogeneous"),
    # then a's pinned degree, then b's
    (v(X1), v(X2), {"deg_a": 4, "deg_b": 6}, ValueError,
     "wrong degree for a"),
    (v(X1), v(X2), {"deg_b": 4}, ValueError, "wrong degree for b"),
    # then the parity of the internal shift
    (v(X1), Poly(), {"deg_b": 5}, OddShift,
     "internal shift (5 - 2)/2 is not an integer"),
    (Poly(), v(X1, 2), {"deg_a": 1}, OddShift,
     "internal shift (4 - 1)/2 is not an integer"),
], ids=["inhomogeneous", "inhomogeneous-pinned", "wrong-a", "wrong-b",
        "odd-zero-b", "odd-zero-a"])
def test_row_errors(a, b, degs, error, message):
    with pytest.raises(ValueError) as info:
        KoszulRow(a, b, **degs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_row_zero_entry_takes_its_pinned_degree():
    row = KoszulRow(Poly(), v(X1), deg_a=6)
    assert (row.deg_a, row.deg_b, row.internal_shift) == (6, 2, -2)
    row = KoszulRow(v(X1, 2), Poly(), deg_b=0)
    assert (row.deg_a, row.deg_b, row.internal_shift) == (4, 0, -2)
    # an unpinned zero entry has degree 0
    assert KoszulRow(Poly(), Poly()).internal_shift == 0


def test_scaled_round_trip_keeps_int_entries():
    row = KoszulRow(2 * v(X1, 3), 6 * v(X1))
    tripled = row.scaled(3)
    assert tripled.a == 6 * v(X1, 3) and tripled.b == 2 * v(X1)
    back = tripled.scaled(Fraction(1, 3))
    assert back == row
    for entry in (tripled.a, tripled.b, back.a, back.b):
        assert all(type(c) is int for c in entry.terms.values())


def test_two_row_tensor_block_matrices():
    a1, b1 = v(X1, 2), v(X1) * 2
    a2, b2 = v(X2, 2), v(X2)
    m = (koszul_new(a1, b1, deg_a=4, deg_b=2)
         @ koszul_new(a2, b2, deg_a=4, deg_b=2))
    e = m.to_explicit()
    assert e.gens0 == (0, -2)
    assert e.gens1 == (-1, -1)
    assert _lists(e.d0) == [[a1, -b2], [a2, b1]]
    assert _lists(e.d1) == [[b1, b2], [-a2, a1]]
    assert verify_factorization(e) == a1 * b1 + a2 * b2


def test_potential_is_additive_under_tensor():
    m = koszul_new(v(X1, 3), v(X1))
    n = koszul_new(v(X2, 2), v(X2, 2))
    assert (m @ n).potential() == m.potential() + n.potential()


def test_koszul_new_normal_forms_entries():
    base = QuotientRing().with_rule(X1, 2, Poly())
    m = koszul_new(v(X1, 3), v(X1), base=base, deg_a=6, deg_b=2)
    assert m.rows[0].a.is_zero()
    assert m.rows[0].deg_a == 6


def test_translate_is_an_involution():
    m = koszul_new(v(X1, 2), v(X1)) @ koszul_new(v(X2, 4), v(X2))
    e = m.to_explicit()
    t = e.translate()
    assert t.gens0 == e.gens1
    assert t.d0.entries == {pos: -p for pos, p in e.d1.entries.items()}
    assert t.translate() == e


def test_row_translation_identity():
    # K(a; b)<1> equals K(-b; -a){(deg b - deg a)/2} slot for slot
    a, b = v(X1, 3), v(X1) * 2
    lhs = koszul_new(a, b, deg_a=6, deg_b=2).to_explicit().translate()
    rhs = koszul_new(-b, -a, deg_a=2, deg_b=6).shifted(-2).to_explicit()
    assert lhs == rhs


def _random_row(rng):
    var = random.Random(rng.random()).choice((X1, X2, X3, Y1))
    e = rng.randint(1, 3)
    c = Fraction(rng.choice((1, 2, -1, 3)))
    a = v(var, e) * c
    b = v(var, rng.randint(1, 2))
    return koszul_new(a, b)


def _identity(n, sign=1):
    one = Poly.const(sign)
    return SparseMat(n, n, {(i, i): one for i in range(n)})


def _random_poly(rng):
    return sum((v(rng.choice((X1, X2, Y1)), rng.randint(0, 2))
                * rng.choice((1, -2, 3)) for _ in range(rng.randint(1, 3))),
               Poly())


def _random_sparse(rng, nrows, ncols, pool):
    return SparseMat(nrows, ncols, {(i, j): rng.choice(pool)
                                    for i in range(nrows)
                                    for j in range(ncols)
                                    if rng.random() < 0.6})


def test_product_matches_a_dense_reference():
    rng = random.Random(5)
    cancelled = 0
    for _ in range(30):
        p, q = _random_poly(rng), _random_poly(rng)
        # one object shared by many positions, and its negation
        pool = (p, -p, q, Poly.const(2))
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _random_sparse(rng, r, k, pool)
        b = _random_sparse(rng, k, c, pool)
        got = a @ b
        assert (got.nrows, got.ncols) == (r, c)
        for i in range(r):
            for j in range(c):
                pairs = [a[(i, t)] * b[(t, j)] for t in range(k)
                         if (i, t) in a.entries and (t, j) in b.entries]
                expected = sum(pairs, Poly())
                assert got[(i, j)] == expected
                if expected.is_zero():
                    assert (i, j) not in got.entries
                    cancelled += bool(pairs)
    assert cancelled
    with pytest.raises(ValueError):
        SparseMat(2, 3) @ SparseMat(2, 3)


def test_commutativity_holds_up_to_conjugation():
    rng = random.Random(11)
    for _ in range(10):
        m, n = _random_row(rng), _random_row(rng)
        mn = (m @ n).to_explicit()
        nm = (n @ m).to_explicit()
        assert sorted(mn.gens0) == sorted(nm.gens0)
        # conjugating isomorphism: diag(1, -1) on slot 0, swap on slot 1
        f0 = SparseMat(2, 2, {(0, 0): Poly.const(1),
                              (1, 1): Poly.const(-1)})
        f1 = SparseMat(2, 2, {(0, 1): Poly.const(1),
                              (1, 0): Poly.const(1)})
        assert (f1 @ mn.d0).entries == (nm.d0 @ f0).entries
        assert (f0 @ mn.d1).entries == (nm.d1 @ f1).entries


def test_tensor_is_strictly_associative_in_explicit_form():
    rng = random.Random(23)
    for _ in range(6):
        l, m, n = _random_row(rng), _random_row(rng), _random_row(rng)
        assert ((l @ m) @ n).to_explicit() == (l @ (m @ n)).to_explicit()


def test_verify_rejects_offdiagonal_square():
    d0 = SparseMat(1, 1, {(0, 0): v(X1)})
    d1 = SparseMat(1, 1, {(0, 0): v(X2)})
    e = ExplicitMF([0], [0], d0, d1)
    with pytest.raises(NotAFactorization):
        # x1*x2 is fine as a scalar, but the degree check needs gens
        broken = ExplicitMF([0, 0], [0, 0],
                            SparseMat(2, 2, {(0, 0): v(X1), (1, 0): v(X2)}),
                            SparseMat(2, 2, {(0, 0): v(X1), (1, 1): v(X1)}))
        verify_factorization(broken)
    assert verify_factorization(e) == v(X1) * v(X2)


def test_verify_rejects_inhomogeneous_entries():
    d0 = SparseMat(1, 1, {(0, 0): v(X1) + v(X1, 2)})
    d1 = SparseMat(1, 1, {(0, 0): Poly()})
    with pytest.raises(NotAFactorization):
        verify_factorization(ExplicitMF([0], [0], d0, d1))


def test_verify_rejects_a_zero_diagonal_entry():
    # d1*d0 = diag(x1*x2, 0): constant where it is set, but not everywhere
    d0 = SparseMat(2, 2, {(0, 0): v(X1)})
    d1 = SparseMat(2, 2, {(0, 0): v(X2)})
    with pytest.raises(NotAFactorization,
                       match=r"^d1\*d0 has a zero diagonal entry$"):
        verify_factorization(ExplicitMF([0, 4], [2, 6], d0, d1))


def test_verify_rejects_an_inhomogeneous_potential():
    # both squares are x1^2 + x1^3
    d0 = SparseMat(1, 1, {(0, 0): v(X1)})
    d1 = SparseMat(1, 1, {(0, 0): v(X1) + v(X1, 2)})
    with pytest.raises(NotAFactorization, match="^inhomogeneous potential$"):
        verify_factorization(ExplicitMF([0], [0], d0, d1))


def test_flip_row_preserves_explicit_class():
    m = koszul_new(v(X1, 3), v(X1) * 2, deg_a=6, deg_b=2)
    f = m.flip_row(0)
    assert f.shift == -2 and f.parity == 1
    assert f.to_explicit() == m.to_explicit()


def test_explicit_form_over_a_quotient_is_the_entrywise_normal_form():
    # entries that repeat across the tensor blocks must each be reduced
    rows = [KoszulRow(v(X1, 3) + v(X2, 3), v(X1)),
            KoszulRow(v(X1, 2), v(X1, 3) - v(X2) * v(X1, 2)),
            KoszulRow(v(X2), v(X1, 4) + v(X1) * v(X2, 3))]
    base = QuotientRing().with_rule(X1, 3, Poly())
    free = KoszulMF(rows, shift=2, parity=1).to_explicit()
    nf = base.normal_form

    def reduced(mat):
        return SparseMat(mat.nrows, mat.ncols,
                         {pos: nf(p) for pos, p in mat.entries.items()})

    expected = ExplicitMF(free.gens0, free.gens1, reduced(free.d0),
                          reduced(free.d1), base)
    got = KoszulMF(rows, base, shift=2, parity=1).to_explicit()
    assert got == expected
    assert got != ExplicitMF(free.gens0, free.gens1, free.d0, free.d1, base)


def _dense_reference(rows, base, shift, parity):
    """(gens0, gens1, d0, d1) as dense lists, one row at a time by the block
    formula d0 = [[dM0, -dN1], [dN0, dM1]], d1 = [[dM1, dN1], [-dN0, dM0]]
    for N = K(a; b), then <parity>, {shift} and entrywise normal forms."""
    zero = Poly()

    def scalar(p, m):
        return [[p if i == j else zero for j in range(m)] for i in range(m)]

    def blocks(tl, tr, bl, br):
        return ([l + r for l, r in zip(tl, tr)]
                + [l + r for l, r in zip(bl, br)])

    g0, g1 = [0], []
    d0, d1 = [], [[]]      # d0 is len(g1) x len(g0), d1 is len(g0) x len(g1)
    for row in rows:
        m0, m1 = len(g0), len(g1)
        d0, d1 = (blocks(d0, scalar(-row.b, m1), scalar(row.a, m0), d1),
                  blocks(d1, scalar(row.b, m0), scalar(-row.a, m1), d0))
        g0, g1 = (g0 + [g + row.internal_shift for g in g1],
                  g1 + [g + row.internal_shift for g in g0])
    if parity:
        g0, g1 = g1, g0
        d0, d1 = ([[-p for p in r] for r in d1], [[-p for p in r] for r in d0])
    nf = base.normal_form
    return ([g + shift for g in g0], [g + shift for g in g1],
            [[nf(p) for p in r] for r in d0], [[nf(p) for p in r] for r in d1])


_POOL = [KoszulRow(v(X1, 3), 2 * v(X1)),
         KoszulRow(v(X2) * v(Y1), Poly(), deg_b=0),
         KoszulRow(v(X2, 2), v(X2, 2) - v(X1, 2)),
         # a is 0 over the ruled base of _explicit_cases, not without rules
         KoszulRow(v(X1, 3) - v(X2, 3) + v(X1) * v(X3, 2), v(X1)),
         KoszulRow(v(X1) * v(X2), -3 * v(X3, 2)),
         KoszulRow(v(X3, 4) + v(X1, 4), v(Y1) - v(X2))]


def _explicit_cases():
    """0..6 rows of _POOL, a b that is 0 and an a that the ruled base sends
    to 0 among them, at both parities, a nonzero shift and a base with one
    rule; then one random factorization each of 5..10 rows."""
    ruled = QuotientRing().with_rule(X1, 3, v(X2, 3) - v(X1) * v(X3, 2))
    for k in range(len(_POOL) + 1):
        for parity in (0, 1):
            for shift, base in ((0, QuotientRing()), (3, QuotientRing()),
                                (-2, ruled)):
                yield k, KoszulMF(_POOL[:k], base, shift, parity)
    rng = random.Random(43)
    for k in range(5, 11):
        yield k, _random_koszul(rng, k, (QuotientRing(), ruled)[k % 2],
                                k // 2 % 2)


def _dense_entries(lists):
    """The nonzero entries of a dense matrix, by position."""
    return {(i, j): p for i, row in enumerate(lists)
            for j, p in enumerate(row) if not p.is_zero()}


def test_explicit_form_matches_the_block_formula():
    cases = 0
    for k, mf in _explicit_cases():
        got = mf.to_explicit()
        g0, g1, d0, d1 = _dense_reference(mf.rows, mf.base, mf.shift,
                                          mf.parity)
        assert (list(got.gens0), list(got.gens1)) == (g0, g1)
        assert (got.d0.nrows, got.d0.ncols) == (len(g1), len(g0))
        assert (got.d1.nrows, got.d1.ncols) == (len(g0), len(g1))
        # to_explicit builds its matrices without SparseMat's checks: every
        # stored position must lie inside the shape, every entry be nonzero
        for mat in (got.d0, got.d1):
            for (i, j), p in mat.entries.items():
                assert 0 <= i < mat.nrows and 0 <= j < mat.ncols, (k, i, j)
                assert not p.is_zero(), (k, i, j)
        assert got.d0.entries == _dense_entries(d0)
        assert got.d1.entries == _dense_entries(d1)
        assert got.base == mf.base
        cases += 1
    assert cases == 48
    empty = KoszulMF((), QuotientRing(), 5, 1).to_explicit()
    assert empty.gens0 == () and empty.gens1 == (5,)
    assert (empty.d0.nrows, empty.d0.ncols) == (1, 0)


def test_explicit_form_shares_entry_objects():
    # verify_factorization's block check compares each position's entry
    # with the one the layout names by list.count, which takes identical
    # entries as equal without comparing them: that pays off because a_r,
    # -a_r, b_r and -b_r are one object each across both matrices, also
    # after ExplicitMF.translate negates them
    for k, mf in _explicit_cases():
        got = mf.to_explicit()
        for pair in (got, got.translate()):
            ids = {id(p) for mat in (pair.d0, pair.d1)
                   for p in mat.entries.values()}
            assert len(ids) <= 4 * k, (k, mf.parity, mf.base)


def _distinct_polys(rng, count):
    """count polynomials, no two equal up to sign."""
    out, seen = [], set()
    while len(out) < count:
        p = _random_poly(rng) * rng.choice((1, 5, -7))
        if p.is_zero() or p in seen:
            continue
        seen.update((p, -p))
        out.append(p)
    return out


def _dense_product(a, b):
    return [[sum((a[(i, t)] * b[(t, j)] for t in range(a.ncols)), Poly())
             for j in range(b.ncols)] for i in range(a.nrows)]


def test_product_matches_a_dense_reference_with_many_symbols():
    rng = random.Random(41)
    zero = Poly()
    cancelled = 0
    for _ in range(12):
        base = _distinct_polys(rng, 48)
        negated = [-p for p in base]    # equal to, not the same as, -p
        order = itertools.cycle(rng.sample(range(48), 48))

        def pick():
            # every entry of base, or its negation, before any repeats
            return rng.choice((base, negated))[next(order)]

        r, k, c = rng.randint(7, 10), rng.randint(7, 10), rng.randint(7, 10)
        empty_rows = set(rng.sample(range(r), 1))
        empty_cols = set(rng.sample(range(c), 1))
        empty_mid = set(rng.sample(range(k), 2))    # rows of b, none stored
        a = {(i, t): pick() for i in range(r) for t in range(k)
             if i not in empty_rows and rng.random() < 0.9}
        b = {(t, j): pick() for t in range(k) for j in range(c)
             if t not in empty_mid and j not in empty_cols
             and rng.random() < 0.9}
        a[(rng.randrange(r), rng.randrange(k))] = zero
        # [a | a | e] @ [b ; -b ; f]: the first two blocks cancel entirely
        e = {(i, t): pick() for i in range(r) for t in range(2)
             if i not in empty_rows and rng.random() < 0.3}
        f = {(t, j): pick() for t in range(2) for j in range(c)
             if j not in empty_cols and rng.random() < 0.3}
        left = SparseMat(r, 2 * k + 2, {
            **a, **{(i, t + k): p for (i, t), p in a.items()},
            **{(i, t + 2 * k): p for (i, t), p in e.items()}})
        right = SparseMat(2 * k + 2, c, {
            **b, **{(t + k, j): -p for (t, j), p in b.items()},
            **{(t + 2 * k, j): p for (t, j), p in f.items()}})
        used = list(left.entries.values()) + list(right.entries.values())
        assert len({min(str(p), str(-p)) for p in used}) > 40
        for lhs, rhs in ((SparseMat(r, k, a), SparseMat(k, c, b)),
                         (left, right)):
            got = lhs @ rhs
            assert (got.nrows, got.ncols) == (lhs.nrows, rhs.ncols)
            for i, row in enumerate(_dense_product(lhs, rhs)):
                for j, expected in enumerate(row):
                    assert got[(i, j)] == expected
                    if expected.is_zero():
                        assert (i, j) not in got.entries
                        cancelled += any((i, t) in lhs.entries
                                         and (t, j) in rhs.entries
                                         for t in range(lhs.ncols))
                    if i in empty_rows or j in empty_cols:
                        assert expected.is_zero()
        # [D1 | D2] @ [D2 ; -D1] is 0: each pair of entries meets in both
        # orders, p*q against q*(-p)
        m = 24
        d1, d2 = base[:m], base[m:2 * m]
        swap = (SparseMat(m, 2 * m, {**{(t, t): d1[t] for t in range(m)},
                                     **{(t, m + t): d2[t] for t in range(m)}})
                @ SparseMat(2 * m, m, {**{(t, t): d2[t] for t in range(m)},
                                       **{(m + t, t): -d1[t]
                                          for t in range(m)}}))
        assert swap == SparseMat(m, m)
    assert cancelled > 100
    for k in (0, 3):
        assert SparseMat(0, k) @ SparseMat(k, 0) == SparseMat(0, 0)
    assert SparseMat(3, 0) @ SparseMat(0, 2) == SparseMat(3, 2)


_VARS = (X1, X2, X3, Y1)
_RULED = QuotientRing().with_rule(X1, 3, v(X2, 3) - v(X1) * v(X3, 2))


def _monomial(rng, degree):
    """A random monic monomial of weighted degree ``degree`` (all of
    _VARS have degree 2)."""
    out = Poly.const(1)
    for _ in range(degree // 2):
        out = out * v(rng.choice(_VARS))
    return out


def _homogeneous(rng, degree):
    while True:
        p = sum((_monomial(rng, degree) * rng.choice((1, -1, 2, -3))
                 for _ in range(rng.randint(1, 3))), Poly())
        if not p.is_zero():
            return p


def _random_koszul(rng, rows, base, parity):
    # every row has deg a + deg b = 8, so the potential is homogeneous
    entries = []
    for _ in range(rows):
        deg_a = 2 * rng.randint(1, 3)
        entries.append(KoszulRow(_homogeneous(rng, deg_a),
                                 _homogeneous(rng, 8 - deg_a), deg_a,
                                 8 - deg_a))
    return KoszulMF(entries, base, rng.randint(-3, 3), parity)


def test_verify_factorization_at_scale():
    rng = random.Random(17)
    for rows in (6, 7, 8):
        for parity in (0, 1):
            for base in (QuotientRing(), _RULED):
                m = _random_koszul(rng, rows, base, parity)
                e = m.to_explicit()
                assert len(e.gens0) == len(e.gens1) == 1 << (rows - 1)
                assert verify_factorization(e) == m.potential()
                which = rng.choice(("d0", "d1"))
                mat = getattr(e, which)
                pos = rng.choice(sorted(mat.entries))
                entries = dict(mat.entries)
                entries[pos] = entries[pos] + _monomial(
                    rng, entries[pos].degree())
                broken = SparseMat(mat.nrows, mat.ncols, entries)
                d0, d1 = (broken, e.d1) if which == "d0" else (e.d0, broken)
                with pytest.raises(NotAFactorization):
                    verify_factorization(ExplicitMF(e.gens0, e.gens1, d0, d1,
                                                    base))


def _reference_omega(e):
    """omega if d1 @ d0 and d0 @ d1 are both omega*Id over e.base, every
    entry taken in normal form, else None."""
    nf = e.base.normal_form
    omega = None
    for left, right in ((e.d1, e.d0), (e.d0, e.d1)):
        square = left @ right
        reduced = SparseMat(square.nrows, square.ncols,
                            {pos: nf(p) for pos, p in square.entries.items()})
        omega = reduced[(0, 0)] if omega is None else omega
        if reduced != SparseMat(square.nrows, square.ncols,
                                {(i, i): omega for i in range(square.nrows)}):
            return None
    return omega


def _perturbed(rng, e, which, how="add"):
    """e with one entry of d0 or d1 plus a monomial of its degree, scaled,
    dropped or negated: every entry stays homogeneous of its degree, so
    only the squares decide."""
    mat = getattr(e, which)
    pos = rng.choice(sorted(mat.entries))
    entries = dict(mat.entries)
    entry = entries.pop(pos)
    if how == "add":
        entries[pos] = entry + _monomial(rng, entry.degree())
    elif how == "scale":
        entries[pos] = entry * rng.choice((2, -3, Fraction(1, 2)))
    elif how == "flip":
        entries[pos] = -entry
    broken = SparseMat(mat.nrows, mat.ncols, entries)
    d0, d1 = (broken, e.d1) if which == "d0" else (e.d0, broken)
    return ExplicitMF(e.gens0, e.gens1, d0, d1, e.base)


def _stray(rng, e):
    """e with one entry added to d0 or d1 at an empty position of an
    off-diagonal block of the block form (see verify_factorization), off
    that block's diagonal, homogeneous of the pair's map degree: only its
    position breaks the block form.  The maps must be at least 4 x 4."""
    which = rng.choice(("d0", "d1"))
    mat = getattr(e, which)
    src, tgt = (e.gens0, e.gens1) if which == "d0" else (e.gens1, e.gens0)
    (i, j), p = next(iter(mat.entries.items()))
    degree = p.degree() + tgt[i] - src[j]
    while True:
        h = 1 << rng.randrange(1, mat.nrows.bit_length() - 1)
        t, u = rng.sample(range(h), 2)
        i, j = rng.choice(((t, h + u), (h + t, u)))
        if degree - tgt[i] + src[j] >= 0:
            break
    assert (i, j) not in mat.entries
    entries = dict(mat.entries)
    entries[(i, j)] = _monomial(rng, degree - tgt[i] + src[j])
    broken = SparseMat(mat.nrows, mat.ncols, entries)
    d0, d1 = (broken, e.d1) if which == "d0" else (e.d0, broken)
    return ExplicitMF(e.gens0, e.gens1, d0, d1, e.base)


def _outcome(verify, e):
    """("ok", omega) or ("refused", the NotAFactorization message)."""
    try:
        return "ok", verify(e)
    except NotAFactorization as error:
        return "refused", str(error)


_HOWS = ("add", "scale", "drop", "flip")


def test_block_path_agrees_with_both_squares():
    # to_explicit's block form is verified without a product; the verdict,
    # omega and every message must be those of both squares by the product
    # kernel, which is also the path of whatever is not in block form
    rng = random.Random(29)
    hows = itertools.cycle(_HOWS)
    refused = dict.fromkeys(_HOWS, 0)
    strays, stray_rng = 0, random.Random(47)
    for rows in range(1, 11):
        for parity in (0, 1):
            for base in (QuotientRing(), _RULED):
                m = _random_koszul(rng, rows, base, parity)
                e = m.to_explicit()
                for case in (e, e.translate()):
                    omega = _block_omega(case)
                    assert omega is not None, (rows, parity, base)
                    assert omega == _reference_omega(case) == m.potential()
                    assert verify_factorization(case) == omega
                    how = next(hows)
                    broken = _perturbed(rng, case, rng.choice(("d0", "d1")),
                                        how)
                    # the block path takes a pair only with the kernel's
                    # omega; any other pair goes to the kernel itself
                    got = _outcome(_product_omega, broken)
                    block = _block_omega(broken)
                    assert block is None or got == ("ok", block)
                    if rows <= 4:
                        expected = _reference_omega(broken)
                        assert got[0] == ("ok" if expected is not None
                                          else "refused")
                        assert got[0] == "refused" or got[1] == expected
                    # any pair of 1 x 1 maps is a factorization; every
                    # larger perturbed pair is refused, whatever the change
                    assert (got[0] == "ok") == (rows == 1), (rows, how)
                    refused[how] += got[0] == "refused"
                    if rows >= 3:
                        # an entry off the diagonal of an off-diagonal block
                        # leaves the block path for the product kernel,
                        # which refuses it
                        broken = _stray(stray_rng, case)
                        assert _block_omega(broken) is None
                        got = _outcome(verify_factorization, broken)
                        assert got == _outcome(_product_omega, broken)
                        assert got[0] == "refused", (rows, got)
                        strays += 1
    assert refused == dict.fromkeys(_HOWS, 9 * 2 * 2 * 2 // 4)
    assert strays == 8 * 2 * 2 * 2


def test_block_path_refuses_a_shifted_generator_degree():
    # the block check rebuilds the generator degrees from the corner and
    # one shift per level, so a single shifted degree leaves the block
    # path; the product kernel then gives the verdict
    rng = random.Random(53)
    refused = 0
    for rows in range(2, 11):
        for parity in (0, 1):
            e = _random_koszul(rng, rows, _RULED, parity).to_explicit()
            for case in (e, e.translate()):
                slot = rng.choice(("gens0", "gens1"))
                gens = list(getattr(case, slot))
                gens[rng.randrange(len(gens))] += rng.choice((-2, -1, 1, 2))
                g0, g1 = ((gens, case.gens1) if slot == "gens0"
                          else (case.gens0, gens))
                broken = ExplicitMF(g0, g1, case.d0, case.d1, case.base)
                assert _block_omega(broken) is None, (rows, parity, slot)
                got = _outcome(verify_factorization, broken)
                assert got == _outcome(_product_omega, broken)
                refused += got[0] == "refused"
    # every generator meets a nonzero entry, whose map degree then differs
    assert refused == 9 * 2 * 2


def test_block_path_compares_entries_by_value():
    # the block check compares the rebuilt entries with the pair's by
    # equality: objects shared as to_explicit shares them only make it
    # faster, so a pair whose every entry is a fresh equal Poly, built
    # through SparseMat's checks, still takes the block path
    def fresh(mat):
        entries = {pos: Poly(p.terms) for pos, p in mat.entries.items()}
        return SparseMat(mat.nrows, mat.ncols, entries)

    rng = random.Random(59)
    for rows in range(1, 9):
        for parity in (0, 1):
            for base in (QuotientRing(), _RULED):
                e = _random_koszul(rng, rows, base, parity).to_explicit()
                for case in (e, e.translate()):
                    copy = ExplicitMF(case.gens0, case.gens1, fresh(case.d0),
                                      fresh(case.d1), case.base)
                    old = {id(p) for mat in (case.d0, case.d1)
                           for p in mat.entries.values()}
                    assert not old & {id(p) for mat in (copy.d0, copy.d1)
                                      for p in mat.entries.values()}
                    omega = _block_omega(case)
                    assert omega is not None
                    assert _block_omega(copy) == omega


def _recursive_block_form(c0, c1, corner, levels):
    """_block_form's layout by its recursion: each level (l, u, nl, nu, s)
    turns the pair into d0 = [[d0, u*I], [l*I, d1]] and
    d1 = [[d1, nu*I], [nl*I, d0]], copying the lower blocks."""
    x, y = corner
    g0, g1 = [c0], [c1]
    d0 = {} if x is None else {(0, 0): x}
    d1 = {} if y is None else {(0, 0): y}
    for l, u, nl, nu, s in levels:
        h = len(g0)
        lower0 = {(h + i, h + j): p for (i, j), p in d1.items()}
        lower1 = {(h + i, h + j): p for (i, j), p in d0.items()}
        for d, lower, left, right in ((d0, lower0, l, u),
                                      (d1, lower1, nl, nu)):
            d.update(lower)
            for i in range(h):
                if left is not None:
                    d[(h + i, i)] = left
                if right is not None:
                    d[(i, h + i)] = right
        g0, g1 = g0 + [g + s for g in g1], g1 + [g + s for g in g0]
    return g0, g1, d0, d1


def test_closed_form_layout_equals_the_recursive_one():
    # _block_form names each entry from its position; the recursion copies
    # the lower blocks level by level.  Both must give the same pair, with
    # the same entry objects, whichever entries are 0 (None)
    rng = random.Random(61)
    cases = 0
    for count in range(11):
        for parity in (0, 1):
            rows = [(_homogeneous(rng, 2), _homogeneous(rng, 6))
                    for _ in range(count + 1)]
            (a, b), shift = rows[0], rng.randint(-3, 3)
            corner, c0, c1 = (a, b), shift, shift + 2
            if parity:
                corner, c0, c1 = (-b, -a), c1, c0
            levels = [(a, -b, -a, b, 2) for a, b in rows[1:]]
            holes = [("corner", 0), ("corner", 1)]
            holes += [(k, slot) for k in range(count) for slot in (0, 1)]
            for hole in [None] + holes:
                got_corner, got_levels = list(corner), list(levels)
                if hole is not None and hole[0] == "corner":
                    got_corner[hole[1]] = None
                elif hole is not None:
                    l, u, nl, nu, s = levels[hole[0]]
                    got_levels[hole[0]] = ((None, u, None, nu, s)
                                           if hole[1] == 0
                                           else (l, None, nl, None, s))
                expected = _recursive_block_form(c0, c1, got_corner,
                                                 got_levels)
                g0, g1, d0, d1 = _block_form(c0, c1, got_corner, got_levels)
                assert (list(g0), list(g1)) == expected[:2]
                for got, want in ((d0, expected[2]), (d1, expected[3])):
                    assert got.keys() == want.keys(), (count, parity, hole)
                    assert all(got[pos] is p for pos, p in want.items())
                cases += 1
    assert cases == 2 * sum(3 + 2 * count for count in range(11))


def test_block_path_checks_every_position_class():
    # one layout entry moved to an empty position keeps each map's entry
    # count, so only the check of each position class can refuse the pair;
    # the product kernel then gives the verdict
    rng = random.Random(67)
    refused = 0
    for rows in range(3, 9):
        for parity in (0, 1):
            for base in (QuotientRing(), _RULED):
                e = _random_koszul(rng, rows, base, parity).to_explicit()
                size = len(e.gens0)
                # the positions _block_omega reads its corner and levels at
                read = {(0, 0)} | {(1 << k, 0) for k in range(rows - 1)}
                read |= {(j, i) for i, j in read}
                for case in (e, e.translate()):
                    which = rng.choice(("d0", "d1"))
                    mat = getattr(case, which)
                    entries = dict(mat.entries)
                    pos = rng.choice(sorted(set(entries) - read))
                    empty = [(i, j) for i in range(size)
                             for j in range(size) if (i, j) not in entries]
                    entries[rng.choice(empty)] = entries.pop(pos)
                    broken = SparseMat(mat.nrows, mat.ncols, entries)
                    d0, d1 = ((broken, case.d1) if which == "d0"
                              else (case.d0, broken))
                    broken = ExplicitMF(case.gens0, case.gens1, d0, d1,
                                        case.base)
                    assert _block_omega(broken) is None, (rows, parity)
                    got = _outcome(verify_factorization, broken)
                    assert got == _outcome(_product_omega, broken)
                    refused += got[0] == "refused"
    assert refused == 6 * 2 * 2 * 2


def test_layout_cache_is_bounded():
    maxsize = mf_module._layout.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64


def test_both_squares_are_checked_where_the_theorem_does_not_hold():
    # omega = 0: d1*d0 is 0 and only d0*d1 fails
    one = Poly.const(1)
    d0 = SparseMat(2, 2, {(1, 0): one})
    d1 = SparseMat(2, 2, {(0, 0): one})
    with pytest.raises(NotAFactorization, match=re.escape(
            "d0*d1 has off-diagonal entry at (1, 0)")):
        verify_factorization(ExplicitMF([0, 0], [0, 0], d0, d1))
    # maps that are not square: d1*d0 = x1^2 is a 1x1 scalar, d0*d1 is not
    d0 = SparseMat(2, 1, {(0, 0): v(X1), (1, 0): v(X2)})
    d1 = SparseMat(1, 2, {(0, 0): v(X1)})
    with pytest.raises(NotAFactorization, match=re.escape(
            "d0*d1 has off-diagonal entry at (1, 0)")):
        verify_factorization(ExplicitMF([0], [0, 0], d0, d1))
    # a base with rules: x1^2 = 0 makes omega = x1 a zero divisor, and
    # d1*d0 = x1*Id while d0*d1 is not
    base = QuotientRing().with_rule(X1, 2, Poly())
    d0 = SparseMat(2, 2, {(0, 0): v(X1), (0, 1): one, (1, 0): v(X1)})
    d1 = SparseMat(2, 2, {(0, 1): one, (1, 0): v(X1)})
    with pytest.raises(NotAFactorization, match=re.escape(
            "d0*d1 has off-diagonal entry at (0, 1)")):
        verify_factorization(ExplicitMF([0, -2], [-1, -1], d0, d1, base))


def _assert_rows_normal(mf):
    offset, high = mf.base._staircase
    for row in mf.rows:
        for entry in (row.a, row.b):
            assert all(not (m + offset) & high for m in entry.terms), entry


def test_rows_are_normal_over_the_base_by_construction():
    rows = [KoszulRow(v(X1, 3), v(X1)), KoszulRow(v(X2, 2), v(X2))]
    free = KoszulMF(rows)
    assert all(new is old for new, old in zip(free.rows, rows))
    base = QuotientRing().with_rule(X1, 2, Poly())
    ruled = KoszulMF(rows, base)
    # a row that is not normal is normalized, keeping its pinned degrees
    assert ruled.rows[0].a.is_zero() and ruled.rows[0].b == v(X1)
    assert (ruled.rows[0].deg_a, ruled.rows[0].deg_b) == (6, 2)
    # a normal row is kept as the same object
    assert ruled.rows[1] is rows[1]
    _assert_rows_normal(ruled)
    # rows that are normal already stay the same objects, and a potential
    # the caller knows is kept as given
    potential = ruled.potential()
    again = KoszulMF(ruled.rows, base, potential=potential)
    assert all(new is old for new, old in zip(again.rows, ruled.rows))
    assert again.potential() is potential
    assert potential == v(X2, 3)


def test_tensor_rows_are_normal_over_the_merged_base():
    m = KoszulMF([KoszulRow(v(X1, 3), v(X1)), KoszulRow(v(X3, 2), v(X1))])
    base = QuotientRing().with_rule(X1, 2, Poly())
    n = KoszulMF([KoszulRow(v(X2, 2), v(X2))], base)
    for product in (m @ n, n @ m):
        assert product.base == base
        _assert_rows_normal(product)
        assert product.potential() == v(X2, 3) + v(X3, 2) * v(X1)


def test_sparse_mat_rejects_positions_outside_its_shape():
    with pytest.raises(ValueError, match=r"\(5, 5\)"):
        SparseMat(2, 2, {(0, 0): v(X1), (5, 5): v(X1)})
    for pos in ((-1, 0), (0, -1), (2, 0), (0, 3)):
        with pytest.raises(ValueError):
            SparseMat(2, 3, {pos: Poly()})
    assert SparseMat(2, 3, {(1, 2): v(X1)})[(1, 2)] == v(X1)


_PRIMITIVES = {
    "arc": (X1, X2),
    "wide": (X1, X2, ("x", 3), ("x", 4)),
    "dline": ((("y", 1), ("z", 1)), (("y", 2), ("z", 2))),
    "vin": (X1, X2, (("y", 3), ("z", 3))),
    "vout": ((("y", 3), ("z", 3)), X1, X2),
}


def test_block_path_on_criterion_8_corpus_and_primitives():
    rng = random.Random(2024)
    mfs = [glue(parse_diagram(_random_diagram(rng))) for _ in range(100)]
    mfs += [build_primitive(kind, n, params) for n in (3, 4, 5)
            for kind, params in _PRIMITIVES.items()]
    rng = random.Random(31)
    hows = itertools.cycle(_HOWS)
    for m in mfs:
        e = m.to_explicit()
        omega = _block_omega(e)
        assert omega is not None and omega == m.potential(), m
        assert _product_omega(e) == omega
        # a map may have no entries (a zero b_r, say)
        which = rng.choice([w for w in ("d0", "d1") if getattr(e, w).entries])
        broken = _perturbed(rng, e, which, next(hows))
        got = _outcome(_product_omega, broken)
        block = _block_omega(broken)
        assert block is None or got == ("ok", block)


def test_explicit_forms_never_reach_the_product_kernel(monkeypatch):
    # every to_explicit result takes the block path: a change to its
    # generator order that lost the block form would fail here, not just
    # make the open-random workload slower
    def refuse(*mats):
        raise AssertionError("verify_factorization built _ProductTables")

    monkeypatch.setattr(mf_module, "_ProductTables", refuse)
    workloads = _load_workloads()
    for item in workloads.corpus(workloads.WORKLOADS["open-random"], 1, 40):
        m = glue(parse_diagram(item.text))
        assert verify_factorization(m.to_explicit()) == m.potential()
    rng = random.Random(37)
    for rows in range(1, 9):
        for parity in (0, 1):
            for base in (QuotientRing(), _RULED):
                m = _random_koszul(rng, rows, base, parity)
                assert verify_factorization(m.to_explicit()) == m.potential()
    with pytest.raises(AssertionError, match="_ProductTables"):
        verify_factorization(_perturbed(rng, m.to_explicit(), "d0"))


def test_explicit_shapes_must_match_the_generators():
    for d0, d1, message in ((SparseMat(2, 1), SparseMat(1, 1),
                             "d0 shape mismatch"),
                            (SparseMat(1, 1), SparseMat(1, 2),
                             "d1 shape mismatch")):
        with pytest.raises(ValueError) as e:
            ExplicitMF([0], [0], d0, d1)
        assert str(e.value) == message
