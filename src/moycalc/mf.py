"""
Koszul matrix factorizations and their explicit 2-periodic form.

A factorization is a pair of free graded modules (M0, M1) with maps
d0: M0 -> M1 and d1: M1 -> M0 composing to omega*Id both ways.  The
elementary block K(a; b) is (R -> R{(deg b - deg a)/2} -> R) with maps
a and b; lists of rows tensor together with the sign convention

    d0 = [[dM0, -dN1], [dN0, dM1]],   d1 = [[dM1, dN1], [-dN0, dM0]].

The translation functor <1> swaps the slots and negates both maps; on a
single row it is realized as K(-b; -a){(deg b - deg a)/2}.
"""

from fractions import Fraction

from .poly import Poly
from .quotient import QuotientRing


class OddShift(ValueError):
    """A Koszul row whose internal shift is not an integer."""


class NotAFactorization(ValueError):
    """d1*d0 is not a scalar multiple of the identity."""


class KoszulRow:
    """One row (a; b) with the Z-degrees of its two entries pinned.

    Degrees are stored explicitly because substitution can send an entry
    to 0 while the slot keeps its degree (the circle's b-entry, say).
    """

    __slots__ = ("a", "b", "deg_a", "deg_b")

    def __init__(self, a, b, deg_a=None, deg_b=None):
        if deg_a is None:
            deg_a = a.degree() if not a.is_zero() else 0
        if deg_b is None:
            deg_b = b.degree() if not b.is_zero() else 0
        if not a.is_homogeneous() or not b.is_homogeneous():
            raise ValueError("row entries must be homogeneous")
        if not a.is_zero() and a.degree() != deg_a:
            raise ValueError("wrong degree for a")
        if not b.is_zero() and b.degree() != deg_b:
            raise ValueError("wrong degree for b")
        if (deg_b - deg_a) % 2:
            raise OddShift("internal shift (%d - %d)/2 is not an integer"
                           % (deg_b, deg_a))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "deg_a", deg_a)
        object.__setattr__(self, "deg_b", deg_b)

    def __setattr__(self, name, value):
        raise AttributeError("KoszulRow is immutable")

    @property
    def internal_shift(self):
        return (self.deg_b - self.deg_a) // 2

    def scaled(self, c):
        c = Fraction(c)
        if not c:
            raise ZeroScalar("row scale factor must be nonzero")
        return KoszulRow(self.a * c, self.b * (1 / c), self.deg_a, self.deg_b)

    def flipped(self):
        """The row of K(a;b)<1> = K(-b;-a){internal_shift}."""
        return KoszulRow(-self.b, -self.a, self.deg_b, self.deg_a)

    def mapped(self, fn):
        return KoszulRow(fn(self.a), fn(self.b), self.deg_a, self.deg_b)

    def __eq__(self, other):
        return (isinstance(other, KoszulRow)
                and self.a == other.a and self.b == other.b
                and self.deg_a == other.deg_a and self.deg_b == other.deg_b)

    def __str__(self):
        return "(%s ; %s)" % (self.a, self.b)

    __repr__ = __str__


class ZeroScalar(ValueError):
    pass


class KoszulMF:
    """rows tensored over a quotient base, with a shift {m} and parity <k>."""

    __slots__ = ("rows", "base", "shift", "parity", "_potential")

    def __init__(self, rows=(), base=None, shift=0, parity=0):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "base", base or QuotientRing())
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "parity", parity % 2)
        object.__setattr__(self, "_potential", None)

    def __setattr__(self, name, value):
        raise AttributeError("KoszulMF is immutable")

    def __eq__(self, other):
        return (isinstance(other, KoszulMF)
                and self.rows == other.rows and self.base == other.base
                and self.shift == other.shift and self.parity == other.parity)

    def replace(self, **kw):
        fields = {"rows": self.rows, "base": self.base,
                  "shift": self.shift, "parity": self.parity}
        fields.update(kw)
        return KoszulMF(**fields)

    def potential(self):
        if self._potential is None:
            out = Poly()
            for row in self.rows:
                out = out + row.a * row.b
            object.__setattr__(self, "_potential",
                               self.base.normal_form(out))
        return self._potential

    def tensor(self, other):
        base = self.base.merge(other.base)
        return KoszulMF(self.rows + other.rows, base,
                        self.shift + other.shift, self.parity + other.parity)

    __matmul__ = tensor

    def shifted(self, m):
        return self.replace(shift=self.shift + m)

    def translate(self):
        return self.replace(parity=self.parity + 1)

    def flip_row(self, i):
        """Rewrite using row_i = row_i<1><1>: same object, row i becomes
        (-b; -a), the compensating shift is absorbed, parity flips."""
        rows = list(self.rows)
        delta = rows[i].internal_shift
        rows[i] = rows[i].flipped()
        return KoszulMF(rows, self.base, self.shift + delta, self.parity + 1)

    def normalized_rows(self):
        """Normal-form every entry over the base."""
        nf = self.base.normal_form
        return self.replace(rows=[r.mapped(nf) for r in self.rows])

    def ambient_variables(self):
        out = set()
        for row in self.rows:
            out |= row.a.variables() | row.b.variables()
        for v, _, p in self.base.rules:
            out.add(v)
            out |= p.variables()
        return out

    def to_explicit(self):
        exp = _unit_explicit(self.base)
        for row in self.rows:
            exp = exp.tensor(_row_explicit(row, self.base))
        if self.parity:
            exp = exp.translate()
        if self.shift:
            exp = exp.shifted(self.shift)
        return exp.normalized()

    def __str__(self):
        body = ", ".join(str(r) for r in self.rows)
        return "KoszulMF([%s], %s, {%d}, <%d>)" % (body, self.base,
                                                   self.shift, self.parity)

    __repr__ = __str__


def koszul_new(a, b, base=None, deg_a=None, deg_b=None):
    """Single-row K(a; b) with shift 0 and parity 0."""
    base = base or QuotientRing()
    row = KoszulRow(base.normal_form(a), base.normal_form(b), deg_a, deg_b)
    return KoszulMF([row], base)


class MFSum:
    """A flat direct sum of factorizations."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        flat = []
        for s in summands:
            if isinstance(s, MFSum):
                flat.extend(s.summands)
            else:
                flat.append(s)
        object.__setattr__(self, "summands", tuple(flat))

    def __setattr__(self, name, value):
        raise AttributeError("MFSum is immutable")

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __eq__(self, other):
        return isinstance(other, MFSum) and self.summands == other.summands

    def __str__(self):
        return "MFSum[%s]" % "; ".join(str(s) for s in self.summands)

    __repr__ = __str__


# -- explicit form -----------------------------------------------------------

class SparseMat:
    """Sparse matrix of Poly entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        clean = {}
        if entries:
            for pos, p in entries.items():
                if not p.is_zero():
                    clean[pos] = p
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __getitem__(self, pos):
        return self.entries.get(pos, Poly())

    def __neg__(self):
        return SparseMat(self.nrows, self.ncols,
                         {pos: -p for pos, p in self.entries.items()})

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, k), p in other.entries.items():
            by_row.setdefault(i, []).append((k, p))
        # tensor-product matrices repeat a handful of distinct entries
        # thousands of times, so memoize the pairwise products and
        # accumulate raw coefficients instead of building interim Polys
        products = {}
        acc = {}
        zero = Fraction(0)
        for (i, k), p in self.entries.items():
            for (j, q) in by_row.get(k, ()):
                key = (id(p), id(q))
                pq = products.get(key)
                if pq is None:
                    pq = p * q
                    products[key] = pq
                slot = acc.setdefault((i, j), {})
                for mono, c in pq.terms.items():
                    slot[mono] = slot.get(mono, zero) + c
        out = {pos: Poly(slot) for pos, slot in acc.items()}
        return SparseMat(self.nrows, other.ncols, out)

    def mapped(self, fn):
        return SparseMat(self.nrows, self.ncols,
                         {pos: fn(p) for pos, p in self.entries.items()})

    def to_lists(self):
        return [[self[(i, j)] for j in range(self.ncols)]
                for i in range(self.nrows)]


class ExplicitMF:
    """Generator degrees for both slots plus the two differentials."""

    __slots__ = ("gens0", "gens1", "d0", "d1", "base")

    def __init__(self, gens0, gens1, d0, d1, base=None):
        if d0.nrows != len(gens1) or d0.ncols != len(gens0):
            raise ValueError("d0 shape mismatch")
        if d1.nrows != len(gens0) or d1.ncols != len(gens1):
            raise ValueError("d1 shape mismatch")
        object.__setattr__(self, "gens0", tuple(gens0))
        object.__setattr__(self, "gens1", tuple(gens1))
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "base", base or QuotientRing())

    def __setattr__(self, name, value):
        raise AttributeError("ExplicitMF is immutable")

    def tensor(self, other):
        base = self.base.merge(other.base)
        m0, m1 = self.gens0, self.gens1
        n0, n1 = other.gens0, other.gens1
        gens0 = [a + b for a in m0 for b in n0] + [a + b for a in m1 for b in n1]
        gens1 = [a + b for a in m1 for b in n0] + [a + b for a in m0 for b in n1]

        entries0 = {}
        entries1 = {}

        def put(target, row, col, p):
            if not p.is_zero():
                target[(row, col)] = target.get((row, col), Poly()) + p

        ln0, ln1 = len(n0), len(n1)
        # d0 blocks: [[dM0 x I(n0), -I(m1) x dN1], [I(m0) x dN0, dM1 x I(n1)]]
        for (i, j), p in self.d0.entries.items():
            for t in range(ln0):
                put(entries0, i * ln0 + t, j * ln0 + t, p)
        for (i, j), p in other.d1.entries.items():
            for s in range(len(m1)):
                put(entries0, s * ln0 + i, len(m0) * ln0 + s * ln1 + j, -p)
        for (i, j), p in other.d0.entries.items():
            for s in range(len(m0)):
                put(entries0, len(m1) * ln0 + s * ln1 + i, s * ln0 + j, p)
        for (i, j), p in self.d1.entries.items():
            for t in range(ln1):
                put(entries0, len(m1) * ln0 + i * ln1 + t,
                    len(m0) * ln0 + j * ln1 + t, p)
        # d1 blocks: [[dM1 x I(n0), I(m0) x dN1], [-I(m1) x dN0, dM0 x I(n1)]]
        for (i, j), p in self.d1.entries.items():
            for t in range(ln0):
                put(entries1, i * ln0 + t, j * ln0 + t, p)
        for (i, j), p in other.d1.entries.items():
            for s in range(len(m0)):
                put(entries1, s * ln0 + i, len(m1) * ln0 + s * ln1 + j, p)
        for (i, j), p in other.d0.entries.items():
            for s in range(len(m1)):
                put(entries1, len(m0) * ln0 + s * ln1 + i, s * ln0 + j, -p)
        for (i, j), p in self.d0.entries.items():
            for t in range(ln1):
                put(entries1, len(m0) * ln0 + i * ln1 + t,
                    len(m1) * ln0 + j * ln1 + t, p)

        d0 = SparseMat(len(gens1), len(gens0), entries0)
        d1 = SparseMat(len(gens0), len(gens1), entries1)
        return ExplicitMF(gens0, gens1, d0, d1, base)

    __matmul__ = tensor

    def translate(self):
        return ExplicitMF(self.gens1, self.gens0, -self.d1, -self.d0, self.base)

    def shifted(self, m):
        return ExplicitMF([g + m for g in self.gens0],
                          [g + m for g in self.gens1],
                          self.d0, self.d1, self.base)

    def normalized(self):
        nf = self.base.normal_form
        return ExplicitMF(self.gens0, self.gens1,
                          self.d0.mapped(nf), self.d1.mapped(nf), self.base)

    def __eq__(self, other):
        return (isinstance(other, ExplicitMF)
                and self.gens0 == other.gens0 and self.gens1 == other.gens1
                and self.d0 == other.d0 and self.d1 == other.d1
                and self.base == other.base)


def _unit_explicit(base):
    return ExplicitMF([0], [], SparseMat(0, 1), SparseMat(1, 0), base)


def _row_explicit(row, base):
    d0 = SparseMat(1, 1, {(0, 0): row.a})
    d1 = SparseMat(1, 1, {(0, 0): row.b})
    return ExplicitMF([0], [row.internal_shift], d0, d1, base)


def potential(mf):
    if isinstance(mf, KoszulMF):
        return mf.potential()
    return verify_factorization(mf)


def verify_factorization(exp):
    """Return omega with d1*d0 = omega*Id = d0*d1, checking homogeneity.

    Raises NotAFactorization with the offending entry position otherwise.
    """
    nf = exp.base.normal_form
    omega = _check_scalar(_square(exp.d1, exp.d0), nf, "d1*d0")
    omega2 = _check_scalar(_square(exp.d0, exp.d1), nf, "d0*d1")
    if len(exp.gens0) and len(exp.gens1) and omega != omega2:
        raise NotAFactorization("d1*d0 and d0*d1 disagree")
    _check_homogeneity(exp, omega if len(exp.gens0) and len(exp.gens1)
                       else Poly())
    return omega if len(exp.gens0) else omega2


def _square(left, right):
    """left @ right, cancelling products symbolically before expanding.

    Tensor-product differentials repeat a few distinct entry polynomials
    across thousands of positions, and the off-diagonal contributions of
    the square cancel in +/- pairs of identical products.  Tracking each
    position as a signed multiset of (entry, entry) symbols makes those
    cancellations free; only surviving symbol sums (the diagonal, for an
    actual factorization) are expanded, and equal sums expand only once.
    """
    if left.ncols != right.nrows:
        raise ValueError("shape mismatch")
    registry = {}
    canon = {}
    keep = []

    def symbol(p):
        got = canon.get(id(p))
        if got is not None:
            return got
        key = tuple(sorted(p.terms.items()))
        hit = registry.get(key)
        if hit is not None:
            got = (1, hit)
        else:
            neg = tuple(sorted((-p).terms.items()))
            hit = registry.get(neg)
            if hit is not None:
                got = (-1, hit)
            else:
                registry[key] = p
                got = (1, p)
        canon[id(p)] = got
        keep.append(p)
        return got

    by_row = {}
    for (k, j), q in right.entries.items():
        by_row.setdefault(k, []).append((j, symbol(q)))
    acc = {}
    for (i, k), p in left.entries.items():
        sp, cp = symbol(p)
        for j, (sq, cq) in by_row.get(k, ()):
            pair = (id(cp), id(cq)) if id(cp) <= id(cq) else (id(cq), id(cp))
            slot = acc.setdefault((i, j), {})
            coeff = slot.get(pair, 0) + sp * sq
            if coeff:
                slot[pair] = coeff
            else:
                del slot[pair]

    polys = {id(p): p for _, p in registry.items()}
    expanded = {}
    entries = {}
    for pos, slot in acc.items():
        if not slot:
            continue
        key = tuple(sorted(slot.items()))
        value = expanded.get(key)
        if value is None:
            value = Poly()
            for (pa, pb), coeff in slot.items():
                value = value + polys[pa] * polys[pb] * coeff
            expanded[key] = value
        if not value.is_zero():
            entries[pos] = value
    return SparseMat(left.nrows, right.ncols, entries)


def _check_scalar(square, nf, label):
    omega = None
    seen_diag = set()
    for (i, j), p in square.entries.items():
        p = nf(p)
        if i != j:
            if not p.is_zero():
                raise NotAFactorization("%s has off-diagonal entry at %r"
                                        % (label, (i, j)))
            continue
        seen_diag.add(i)
        if omega is None:
            omega = p
        elif omega != p:
            raise NotAFactorization("%s diagonal not constant at %r"
                                    % (label, (i, i)))
    if omega is None:
        omega = Poly()
    if not omega.is_zero() and len(seen_diag) != square.nrows:
        raise NotAFactorization("%s has a zero diagonal entry" % label)
    return omega


def _check_homogeneity(exp, omega):
    """Each entry must be homogeneous, and the map degree
    deg(entry) + deg(target) - deg(source) must be one constant."""
    expected = None
    if not omega.is_zero():
        if not omega.is_homogeneous():
            raise NotAFactorization("inhomogeneous potential")
        expected = omega.degree() // 2
    for mat, src, tgt in ((exp.d0, exp.gens0, exp.gens1),
                          (exp.d1, exp.gens1, exp.gens0)):
        for (i, j), p in mat.entries.items():
            if p.is_zero():
                continue
            if not p.is_homogeneous():
                raise NotAFactorization("inhomogeneous entry at %r" % ((i, j),))
            d = p.degree() + tgt[i] - src[j]
            if expected is None:
                expected = d
            elif d != expected:
                raise NotAFactorization("entry degree mismatch at %r"
                                        % ((i, j),))
