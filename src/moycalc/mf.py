"""
Koszul matrix factorizations and their explicit 2-periodic form.

A factorization is a pair of free graded modules (M0, M1) with maps
d0: M0 -> M1 and d1: M1 -> M0 composing to omega*Id both ways.  The
elementary block K(a; b) is (R -> R{(deg b - deg a)/2} -> R) with maps
a and b.  Rows tensor together, one at a time, by the block convention

    d0 = [[dM0, -dN1], [dN0, dM1]],   d1 = [[dM1, dN1], [-dN0, dM0]],

and the explicit form writes that iteration out as the Koszul complex on
an exterior algebra.  A generator is a set S of rows, of degree
shift + sum of the internal shifts (deg b_r - deg a_r)/2 over r in S; M0
holds the sets with |S| = parity (mod 2), M1 the others, each ordered by
the bitmask sum of 2^r over r in S.  In both maps row r sends S to
S xor {r}, by a_r when r is added and by b_r when r is removed, with the
Koszul sign (-1)^|{s in S : s < r}|.

KoszulMF.to_explicit builds the pair by that convention, one row at a
time, from the single generator of the empty set: the sets without the
new row come first, so the old d0 and d1 stay in the upper left blocks,
are copied into the lower right ones as the same entry objects, and the
row's a and -b (in d0), b and -a (in d1) are written once down the
diagonals of the off-diagonal blocks, nothing where the entry is 0.
Every block lies inside the new shape and no 0 is ever written, so the
matrices take their entries without SparseMat's position and zero checks.

The translation functor <1> swaps the slots and negates both maps; on a
single row it is realized as K(-b; -a){(deg b - deg a)/2}.

The potential of the rows is omega = sum_r a_r*b_r, in normal form over
the base.  It is linear in the rows: the tensor product of factorizations
with potentials W_M and W_N has potential W_M + W_N (Khovanov-Rozansky,
math/0401268), since its rows are both sides' rows.  Over a base without
rules no normal form intervenes, so KoszulMF.tensor carries the sum of
two known potentials instead of multiplying out the rows again, and a
renaming of the variables, a ring homomorphism, carries the potential to
its image (diagram.build_primitive).

verify_factorization reads a pair in to_explicit's block form once,
entry by entry: the block form alone makes both squares omega*Id (proof
in its docstring).  Any other pair is checked by computing both squares.
"""

from .poly import Poly, as_coeff, mono_degree, qdiv
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
        # each entry's term degrees, read once for homogeneity and degree
        degs_a = {mono_degree(m) for m in a.terms}
        degs_b = {mono_degree(m) for m in b.terms}
        if len(degs_a) > 1 or len(degs_b) > 1:
            raise ValueError("row entries must be homogeneous")
        deg_a = _slot_degree(degs_a, deg_a, "a")
        deg_b = _slot_degree(degs_b, deg_b, "b")
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
        c = as_coeff(c)
        if not c:
            raise ZeroScalar("row scale factor must be nonzero")
        return KoszulRow(self.a * c, self.b * qdiv(1, c), self.deg_a,
                         self.deg_b)

    def flipped(self):
        """The row of K(a;b)<1> = K(-b;-a){internal_shift}."""
        return KoszulRow(-self.b, -self.a, self.deg_b, self.deg_a)

    def mapped(self, fn):
        """The row of fn applied to both entries; the row itself when fn
        returns both entries as they are."""
        a, b = fn(self.a), fn(self.b)
        if a is self.a and b is self.b:
            return self
        return KoszulRow(a, b, self.deg_a, self.deg_b)

    def __eq__(self, other):
        return (isinstance(other, KoszulRow)
                and self.a == other.a and self.b == other.b
                and self.deg_a == other.deg_a and self.deg_b == other.deg_b)

    def __str__(self):
        return "(%s ; %s)" % (self.a, self.b)

    __repr__ = __str__


def _slot_degree(degrees, pinned, slot):
    """The degree of a slot whose entry has the term degrees given (at
    most one): the pinned degree if any, else the entry's, 0 for 0."""
    if not degrees:
        return 0 if pinned is None else pinned
    (degree,) = degrees
    if pinned is not None and degree != pinned:
        raise ValueError("wrong degree for %s" % slot)
    return degree


class ZeroScalar(ValueError):
    pass


class KoszulMF:
    """rows tensored over a quotient base, with a shift {m} and parity <k>.

    potential, if given, is the potential as the caller already knows it
    (see the module docstring); it must equal what potential() would
    compute from the rows.  Without rows the potential is 0.
    """

    __slots__ = ("rows", "base", "shift", "parity", "_potential")

    def __init__(self, rows=(), base=None, shift=0, parity=0, potential=None):
        rows = tuple(rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "base", base or QuotientRing())
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "parity", parity % 2)
        object.__setattr__(self, "_potential",
                           Poly() if not rows else potential)

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
        """self (x) other; without rules on the merged base, a potential
        that both sides know is carried as their sum."""
        base = self.base.merge(other.base)
        potential = None
        if (not base.rules and self._potential is not None
                and other._potential is not None):
            potential = self._potential + other._potential
        return KoszulMF(self.rows + other.rows, base,
                        self.shift + other.shift, self.parity + other.parity,
                        potential)

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
        """Normal-form every entry over the base; without rules every
        entry is normal already, so this is self and keeps its cached
        potential."""
        if not self.base.rules:
            return self
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
        # (d0, d1) is the pair of the rows so far and (g0, g1) its degrees;
        # each row K(a; b) turns it into (module docstring)
        #     d0 = [[d0, -b*I], [a*I, d1]],   d1 = [[d1, b*I], [-a*I, d0]].
        # No position leaves the new shape and no 0 is written, so
        # _trusted skips SparseMat's checks; a_r, -a_r, b_r and -b_r stay
        # one object each, which verify_factorization's block check
        # compares by identity and grades by id.
        nf = self.base.normal_form
        # index[k] is k: positions share these int objects instead of
        # holding a new int per entry above the interpreter's small ints
        index = list(range(1 << len(self.rows) >> 1 or 1))
        g0, g1 = [self.shift], []
        d0, d1 = {}, {}
        for row in self.rows:
            a, b = nf(row.a), nf(row.b)
            if self.parity:     # <1> negates both maps
                a, b = -a, -b
            h0, h1 = len(g0), len(g1)
            at0, at1 = index[h0:], index[h1:]   # at0[k] is h0 + k
            lower0 = {(at1[i], at0[j]): p for (i, j), p in d1.items()}
            lower1 = {(at0[i], at1[j]): p for (i, j), p in d0.items()}
            d0.update(lower0)
            d1.update(lower1)
            if not a.is_zero():
                d0.update(dict.fromkeys(zip(at1, index[:h0]), a))
                d1.update(dict.fromkeys(zip(at0, index[:h1]), -a))
            if not b.is_zero():
                d0.update(dict.fromkeys(zip(index[:h1], at0), -b))
                d1.update(dict.fromkeys(zip(index[:h0], at1), b))
            s = row.internal_shift
            g0, g1 = g0 + [g + s for g in g1], g1 + [g + s for g in g0]
        if self.parity:     # <1> swaps the slots
            g0, g1, d0, d1 = g1, g0, d1, d0
        return ExplicitMF(g0, g1, _trusted(len(g1), len(g0), d0),
                          _trusted(len(g0), len(g1), d1), self.base)

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
                i, j = pos
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError("position %r outside a %dx%d matrix"
                                     % (pos, nrows, ncols))
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
        return _negated(self, {})

    def __matmul__(self, other):
        """Matrix product (see _ProductTables)."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return _ProductTables(self, other).product(0, 1)


def _trusted(nrows, ncols, entries):
    """A SparseMat that takes entries as they are: the caller guarantees
    every position lies inside nrows x ncols and every entry is nonzero,
    the two things SparseMat.__init__ checks."""
    mat = object.__new__(SparseMat)
    object.__setattr__(mat, "nrows", nrows)
    object.__setattr__(mat, "ncols", ncols)
    object.__setattr__(mat, "entries", entries)
    return mat


def _negated(mat, memo):
    """-mat, negating each distinct entry object once: memo maps the id of
    an entry to its negation, and mat holds the entry, so the id stays
    its own.  Matrices negated with one memo share their negated
    entries as they shared the originals."""
    entries = {}
    for pos, p in mat.entries.items():
        q = memo.get(id(p))
        if q is None:
            q = memo[id(p)] = -p
        entries[pos] = q
    return _trusted(mat.nrows, mat.ncols, entries)


class _ProductTables:
    """The one product kernel, over tables built once for several matrices:
    the general path of verify_factorization for matrices not in block
    form, and the tests' reference.

    Tensor-product differentials repeat a few distinct entries, up to
    sign, across thousands of positions, and the off-diagonal sums of
    a square d1 @ d0 cancel in +/- pairs of equal products.  So each
    position first sums integer multiples of unordered pairs of
    distinct entries (p and -p are one entry with a sign), and only
    the sums that survive are expanded into polynomials, equal sums
    once.

    One symbol table numbers the distinct entries of all the matrices,
    and each matrix is indexed by row once, so both squares of a
    factorization share them and their expansions.  Each output row i
    counts its pair products in one dict keyed by a single int,
    j * n^2 + lo * n + hi for column j and the unordered pair lo <= hi
    of the n distinct entries; only the keys whose count is nonzero are
    decoded into per-position sums.
    """

    __slots__ = ("mats", "rows", "reps", "expanded")

    def __init__(self, *mats):
        symbols = {}    # entry -> (sign, index into reps)
        seen = {}       # id(entry) -> symbol; the matrices hold the entries
        reps = []

        def symbol(p):
            got = seen.get(id(p))
            if got is None:
                got = symbols.get(p)
                if got is None:
                    got = symbols[p] = (1, len(reps))
                    symbols[-p] = (-1, len(reps))
                    reps.append(p)
                seen[id(p)] = got
            return got

        self.mats = mats
        self.rows = []
        for mat in mats:
            index = {}
            for (i, j), p in mat.entries.items():
                index.setdefault(i, []).append((j, *symbol(p)))
            self.rows.append(index)
        self.reps = reps
        self.expanded = {}

    def product(self, x, y):
        """mats[x] @ mats[y], whose shapes must match."""
        reps, expanded = self.reps, self.expanded
        right = self.rows[y]
        n = len(reps)
        nn = n * n
        entries = {}
        for i, row in self.rows[x].items():
            acc = {}
            for k, sp, a in row:
                for j, sq, b in right.get(k, ()):
                    key = j * nn + (a * n + b if a <= b else b * n + a)
                    acc[key] = acc.get(key, 0) + sp * sq
            slots = {}
            for key, c in acc.items():
                if c:
                    j, pair = divmod(key, nn)
                    slots.setdefault(j, []).append((pair, c))
            for j, slot in slots.items():
                key = tuple(sorted(slot))
                if key not in expanded:
                    value = Poly()
                    for pair, c in key:
                        a, b = divmod(pair, n)
                        value = value + reps[a] * reps[b] * c
                    expanded[key] = value
                entries[(i, j)] = expanded[key]
        return SparseMat(self.mats[x].nrows, self.mats[y].ncols, entries)


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

    def translate(self):
        # one memo for both maps, so an entry that both hold stays one
        # object in the result
        memo = {}
        return ExplicitMF(self.gens1, self.gens0, _negated(self.d1, memo),
                          _negated(self.d0, memo), self.base)

    def __eq__(self, other):
        return (isinstance(other, ExplicitMF)
                and self.gens0 == other.gens0 and self.gens1 == other.gens1
                and self.d0 == other.d0 and self.d1 == other.d1
                and self.base == other.base)


def verify_factorization(exp):
    """Return omega with d1*d0 = omega*Id = d0*d1, checking homogeneity.

    Raises NotAFactorization with the offending entry position otherwise.

    A pair in the block form that KoszulMF.to_explicit writes is verified
    by reading each stored entry once, with no matrix product.  Split off
    the highest row r: the sets without r come first in bitmask order, so
    square maps of size 2h are, in h x h blocks,

        d0 = [[P, -b*I], [a*I, P']],   d1 = [[P', b*I], [-a*I, P]],

    where (P, P') is the explicit form of the other rows and a, b are row
    r's entries (both negated under parity 1).  The base is commutative,
    so b*P' = P'*b, a*P = P*a and

        d1*d0 = diag(P'P + ab, PP' + ab),   d0*d1 = diag(PP' + ab, P'P + ab):

    both squares of (d0, d1) are omega*Id exactly when both squares of
    (P, P') are (omega - ab)*Id.  The recursion ends at 1 x 1 maps [[x]]
    and [[y]], whose squares are both xy.  So any pair of this form is a
    factorization of omega = xy + the sum of ab over the levels, taken in
    normal form, whatever its entries are.

    Unrolled, entry (i, j) lies in the frame of level max(i, j).bit_length():
    level 0 is the 1 x 1 corner, and level L >= 1, with h = 2^(L-1), is
    the off-diagonal and lower right blocks of the leading 2h x 2h part.
    Each off-diagonal block must be one scalar on its full diagonal (or
    empty, for 0), with d1's scalars opposite to d0's.  Each lower right
    block must equal the other map's upper left h x h block: each of its
    entries equals the other map's entry at (i - h, j - h), and the two
    blocks hold as many entries.

    Homogeneity is read in the same pass.  At each level the generator
    degrees at h + t, for t < h, must be the other slot's at t plus one
    constant, as they are for to_explicit (row L's internal shift; the
    corner is row 0).  Then a lower right entry has the homogeneity, the
    degree and the map degree deg(entry) + deg(target) - deg(source) of
    the entry it equals, so only the corner and the off-diagonal entries
    are read, each distinct object once.  Their map degrees must agree,
    and equal deg(omega)/2 when omega != 0.

    Any other pair (hand-built, or with an entry changed), and one whose
    degrees fail, takes the general path whole: both squares by
    _ProductTables, then homogeneity of every entry.  So every refusal and
    its message come from that path.
    """
    omega = _block_omega(exp)
    return _product_omega(exp) if omega is None else omega


def _block_omega(exp):
    """omega of a pair in to_explicit's block form whose entries have one
    map degree (see verify_factorization), else None."""
    size = len(exp.gens0)
    if not size or size & (size - 1) or size != len(exp.gens1):
        return None
    gens0, gens1 = exp.gens0, exp.gens1
    graded = {}
    frames0 = _frames(exp.d0, exp.d1, gens0, gens1, graded, None)
    frames1 = frames0 and _frames(exp.d1, exp.d0, gens1, gens0, graded,
                                  frames0[4])
    if not frames1:
        return None
    (upper0, lower0, inner0, off0, _), (upper1, lower1, inner1, off1,
                                        degree) = frames0, frames1
    x, y = exp.d0.entries.get((0, 0)), exp.d1.entries.get((0, 0))
    omega = x * y if x is not None and y is not None else Poly()
    below0 = below1 = 0     # entries of each map's upper left h x h block
    for level in range(1, size.bit_length()):
        h = 1 << (level - 1)
        shifts = ({g - f for g, f in zip(gens1[h:2 * h], gens0)}
                  | {g - f for g, f in zip(gens0[h:2 * h], gens1)})
        below0 += inner0[level - 1] + off0[level - 1]
        below1 += inner1[level - 1] + off1[level - 1]
        if (len(shifts) != 1
                or inner0[level] != below1 or inner1[level] != below0):
            return None
        scalars = (upper0[level], upper1[level], lower0[level], lower1[level])
        if off0[level] + off1[level] != h * sum(s is not None
                                                for s in scalars):
            return None
        for s, t in (scalars[:2], scalars[2:]):
            if (s is None) != (t is None) or s is not None and s != -t:
                return None
        if lower0[level] is not None and upper1[level] is not None:
            omega = omega + lower0[level] * upper1[level]
    omega = exp.base.normal_form(omega)
    if not omega.is_zero() and (not omega.is_homogeneous()
                                or degree != omega.degree() // 2):
        return None
    return omega


def _frames(mat, other, src, tgt, graded, expected):
    """One pass over mat's entries for _block_omega.  Per level: the
    scalar of the upper right and of the lower left block (None where
    empty), the count of lower right entries, each of which must equal
    other's entry h rows and columns back (the corner counts at level 0),
    and the count of off-diagonal entries; then the one map degree of the
    corner and off-diagonal entries, which must be expected unless that is
    None.  None where any of this fails."""
    levels = len(src).bit_length()
    upper, lower = [None] * levels, [None] * levels
    inner, off = [0] * levels, [0] * levels
    mirror = other.entries
    for (i, j), p in mat.entries.items():
        level = (i if i > j else j).bit_length()
        h = 1 << level >> 1
        if level and i >= h and j >= h:
            q = mirror.get((i - h, j - h))
            if q is None or q is not p and q != p:
                return None
            inner[level] += 1
            continue
        degree = graded.get(id(p))
        if degree is None:
            if not p.is_homogeneous():
                return None
            degree = graded[id(p)] = p.degree()
        degree += tgt[i] - src[j]
        if degree != expected:
            if expected is not None:
                return None
            expected = degree
        if not level:
            inner[0] += 1
            continue
        if i - j != (h if i >= h else -h):
            return None
        off[level] += 1
        scalars = lower if i >= h else upper
        s = scalars[level]
        if s is None:
            scalars[level] = p
        elif s is not p and s != p:
            return None
    return upper, lower, inner, off, expected


def _product_omega(exp):
    """verify_factorization's general path: both squares by the product
    kernel, then homogeneity."""
    nf = exp.base.normal_form
    tables = _ProductTables(exp.d0, exp.d1)
    omega = _check_scalar(tables.product(1, 0), nf, "d1*d0")
    omega2 = _check_scalar(tables.product(0, 1), nf, "d0*d1")
    if len(exp.gens0) and len(exp.gens1) and omega != omega2:
        raise NotAFactorization("d1*d0 and d0*d1 disagree")
    _check_homogeneity(exp, omega if len(exp.gens0) and len(exp.gens1)
                       else Poly())
    return omega if len(exp.gens0) else omega2


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
    # tensor-product matrices share a few entry objects across many
    # positions; the matrices keep them alive, so ids are stable here
    graded = {}
    for mat, src, tgt in ((exp.d0, exp.gens0, exp.gens1),
                          (exp.d1, exp.gens1, exp.gens0)):
        for (i, j), p in mat.entries.items():
            info = graded.get(id(p))
            if info is None:
                info = graded[id(p)] = (p.is_homogeneous(), p.degree())
            homogeneous, degree = info
            if not homogeneous:
                raise NotAFactorization("inhomogeneous entry at %r" % ((i, j),))
            d = degree + tgt[i] - src[j]
            if expected is None:
                expected = d
            elif d != expected:
                raise NotAFactorization("entry degree mismatch at %r"
                                        % ((i, j),))
