"""
Koszul matrix factorizations and their explicit 2-periodic form.

A factorization is a pair of free graded modules (M0, M1) with maps
d0: M0 -> M1 and d1: M1 -> M0 composing to omega*Id both ways.  The
elementary block K(a; b) is (R -> R{(deg b - deg a)/2} -> R) with maps
a and b.  Rows tensor together by the Khovanov-Rozansky block
convention (math/0401268); KoszulMF.to_explicit writes the result out by
_block_form.  In that layout every entry has a closed form: position
(i, j) is filled only on the diagonal, where the entry depends on the
parity of i's popcount, and where i ^ j is a single bit 2^k, where it
depends on bit k of i and on the parity of i's bits above k.
_block_form's docstring states it and proves it equal to the recursive
tensor layout.

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

verify_factorization checks a pair in that layout in place, class of
positions by class, without building a second pair: the layout alone
makes both squares omega*Id (proof in its docstring).  Any other pair is
checked by computing both squares.
"""

import functools
from itertools import repeat

from .poly import (DomainError, Poly, _Immutable, as_coeff, mono_degree,
                   qdiv, sum_of_products)
from .quotient import QuotientRing


class OddShift(DomainError, ValueError):
    """A Koszul row whose internal shift is not an integer."""


class NotAFactorization(DomainError, ValueError):
    """d1*d0 is not a scalar multiple of the identity."""


class KoszulRow(_Immutable):
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


class ZeroScalar(DomainError, ValueError):
    pass


class KoszulMF(_Immutable):
    """rows tensored over a quotient base, with a shift {m} and parity <k>.

    The rows are held in normal form over the base; a row that is normal
    already is kept as the same object, so every step of a reduction
    hands on the rows it does not touch as they are.

    potential, if given, is the potential as the caller already knows it
    (see the module docstring); it must equal what potential() would
    compute from the rows.  Without rows the potential is 0.
    """

    __slots__ = ("rows", "base", "shift", "parity", "_potential")

    def __init__(self, rows=(), base=None, shift=0, parity=0, potential=None):
        base = base or QuotientRing()
        rows = tuple(rows)
        if base.rules:
            rows = tuple(r.mapped(base.normal_form) for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "parity", parity % 2)
        object.__setattr__(self, "_potential",
                           Poly() if not rows else potential)

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
            out = sum_of_products((row.a, row.b) for row in self.rows)
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

    def ambient_variables(self):
        out = set()
        for row in self.rows:
            out |= row.a.variables() | row.b.variables()
        for v, _, p in self.base.rules:
            out.add(v)
            out |= p.variables()
        return out

    def to_explicit(self):
        """The explicit pair in _block_form's layout.  Row 0 is the corner;
        <1> turns it into K(-b; -a) with its degrees swapped and leaves
        every later row's level as it is."""
        if not self.rows:
            g0, g1 = [self.shift], []
            if self.parity:
                g0, g1 = g1, g0
            return ExplicitMF(g0, g1, SparseMat(len(g1), len(g0)),
                              SparseMat(len(g0), len(g1)), self.base)
        first = self.rows[0]
        (a, na), (b, nb) = _signed(first.a), _signed(first.b)
        corner = (a, b)
        c0, c1 = self.shift, self.shift + first.internal_shift
        if self.parity:
            corner, c0, c1 = (nb, na), c1, c0
        levels = []
        for row in self.rows[1:]:
            (a, na), (b, nb) = _signed(row.a), _signed(row.b)
            levels.append((a, nb, na, b, row.internal_shift))
        g0, g1, d0, d1 = _block_form(c0, c1, corner, levels)
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
    # normalized before the row is built: an unpinned zero entry takes its
    # degree from its normal form
    row = KoszulRow(base.normal_form(a), base.normal_form(b), deg_a, deg_b)
    return KoszulMF([row], base)


class MFSum(_Immutable):
    """A direct sum of factorizations."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        object.__setattr__(self, "summands", tuple(summands))

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

class SparseMat(_Immutable):
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

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __getitem__(self, pos):
        return self.entries.get(pos, Poly())

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


def _signed(p):
    """(p, -p), or (None, None) for 0 or None."""
    return (None, None) if p is None or p.is_zero() else (p, -p)


def _block_form(c0, c1, corner, levels):
    """gens0, gens1 and the entries of d0 and d1 of the explicit pair in
    block form, None standing for 0 in corner and levels.

    The pair starts as the 1 x 1 maps d0 = [[x]] and d1 = [[y]], for
    corner (x, y), on generators of degrees c0 and c1.  Each level
    (l, u, nl, nu, s) then turns the pair into, in blocks of its size,

        d0 = [[d0, u*I], [l*I, d1]],   d1 = [[d1, nu*I], [nl*I, d0]],

    the new generators of each slot taking the other slot's degrees plus
    s.  For the rows K(a_r; b_r) of KoszulMF.to_explicit, row 0 is the
    corner (a_0, b_0) and row r >= 1 the level (a_r, -b_r, -a_r, b_r,
    internal shift).  Unrolled, that is the Koszul complex on an exterior
    algebra: generator k of a slot is the set of rows r >= 1 with bit
    r - 1 of k set, plus row 0 where the slot's parity asks for it.

    The entries have a closed form.  The diagonal (i, i) holds x in d0
    and y in d1 where i has an even popcount, and the other way round
    where it is odd.  Level k, of size h = 2^k, fills (i, i ^ h): with p
    the parity of i's bits above k, d0 holds there u where bit k of i is
    clear and l where it is set when p is even, nu and nl when p is odd;
    d1 holds the other pair.  No other position is filled.  By induction
    on the levels, this is the recursion above.  It holds for the 1 x 1
    pair.  A level of size H = 2^m keeps each map's block on i, j < H,
    where bit m is clear and nothing changes.  It fills the block on
    i, j >= H with the other map, at i - H: setting bit m adds one to
    i's popcount and to its parity above every level k < m, which swaps
    x with y and (u, l) with (nu, nl), and that turns the other map's
    closed form into this one's.  The off-diagonal blocks hold the
    level's own entries at (i, i ^ H), with no bit of i above m.

    Each map is filled once per position class of _layout, whose tuples
    every call with as many levels shares, so a_r, -a_r, b_r and -b_r are
    one object each and no position is copied.  No position leaves the
    shape and no 0 is written, so the entries can go to _trusted.
    """
    classes = _layout(len(levels))
    d0, d1 = {}, {}
    for d, names in zip((d0, d1), _block_names(corner, levels)):
        for cls, p in zip(classes, names):
            if p is not None:
                d.update(zip(cls, repeat(p)))
    g0, g1 = _block_degrees(c0, c1, [level[4] for level in levels])
    return g0, g1, d0, d1


@functools.lru_cache(maxsize=16)
def _layout(count):
    """The position classes of the block layout with count levels, in the
    order of _block_names: the diagonal at even and at odd popcount, then
    for each level k, of size h = 2^k, the positions (i, i ^ h) with bit
    k of i clear and then set, first where i's bits above k have even
    parity and then where they have odd parity.  Only tuples of ints are
    cached, never an entry."""
    size = 1 << count
    parity = [i.bit_count() & 1 for i in range(size)]
    classes = [tuple((i, i) for i in range(size) if parity[i] == odd)
               for odd in (0, 1)]
    for k in range(count):
        h = 1 << k
        for odd in (0, 1):
            for low in (0, h):
                classes.append(tuple((i, i ^ h) for i in range(size)
                                     if i & h == low
                                     and parity[i >> k + 1] == odd))
    return tuple(classes)


def _block_names(corner, levels):
    """The entries that d0 and d1 hold on each class of _layout, None for
    0 (see _block_form)."""
    x, y = corner
    names0, names1 = [x, y], [y, x]
    for l, u, nl, nu, _ in levels:
        names0 += (u, l, nu, nl)
        names1 += (nu, nl, u, l)
    return names0, names1


def _block_degrees(c0, c1, shifts):
    """gens0 and gens1 of the block layout, as tuples: each level's new
    generators of a slot take the other slot's degrees plus its shift."""
    g0, g1 = [c0], [c1]
    for s in shifts:
        g0, g1 = g0 + [g + s for g in g1], g1 + [g + s for g in g0]
    return tuple(g0), tuple(g1)


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


class ExplicitMF(_Immutable):
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

    A pair in _block_form's layout is verified with no matrix product:
    _block_omega reads its corner (x, y) and each level's (l, u, nl, nu)
    and shift at their positions, requires nl = -l and nu = -u, and
    requires the pair to equal the one _block_form builds from them,
    without building it.  In _block_form's closed form, each map holds
    one named entry on each position class of _layout and nothing
    elsewhere; so each map must hold an entry equal to the named one at
    every position of each class whose entry is not 0, and exactly as
    many entries as those classes have positions.
    In h x h blocks a level is

        d0 = [[P, u*I], [l*I, P']],   d1 = [[P', -u*I], [-l*I, P]],

    where (P, P') is the pair of the levels below.  The base is
    commutative, so u*P' = P'*u, l*P = P*l and

        d1*d0 = diag(P'P - lu, PP' - lu),   d0*d1 = diag(PP' - lu, P'P - lu):

    both squares of (d0, d1) are omega*Id exactly when both squares of
    (P, P') are (omega + lu)*Id.  The recursion ends at 1 x 1 maps [[x]]
    and [[y]], whose squares are both xy.  So any pair of this form is a
    factorization of omega = xy - the sum of lu over the levels, taken in
    normal form, whatever its entries are.

    Each new generator's degree is the other slot's plus the level's
    shift, so a copied entry has the homogeneity and the map degree
    deg(entry) + deg(target) - deg(source) of the entry it copies, and
    -l, -u have those of l, u: only x, y, l and u are graded.  Their map
    degrees must agree, and equal deg(omega)/2 when omega != 0.

    Any other pair (hand-built, or with an entry changed), and one whose
    degrees fail, takes the general path whole: both squares by
    _ProductTables, then homogeneity of every entry.  So every refusal and
    its message come from that path.
    """
    omega = _block_omega(exp)
    return _product_omega(exp) if omega is None else omega


def _block_omega(exp):
    """omega of a pair in _block_form's layout whose entries have one map
    degree (see verify_factorization), else None."""
    gens0, gens1 = exp.gens0, exp.gens1
    size = len(gens0)
    if not size or size & (size - 1) or size != len(gens1):
        return None
    e0, e1 = exp.d0.entries, exp.d1.entries
    x, y = e0.get((0, 0)), e1.get((0, 0))
    levels = []
    # the entries the layout names, with the target and source degrees of
    # their positions, and the products whose sum is omega
    named = [(x, gens1[0], gens0[0]), (y, gens0[0], gens1[0])]
    products = [(x, y)]
    for k in range(size.bit_length() - 1):
        h = 1 << k
        l, u = e0.get((h, 0)), e0.get((0, h))
        nl, nu = e1.get((h, 0)), e1.get((0, h))
        if _signed(l) != (l, nl) or _signed(u) != (u, nu):
            return None
        levels.append((l, u, nl, nu, gens0[h] - gens1[0]))
        named += ((l, gens1[h], gens0[0]), (u, gens1[0], gens0[h]))
        products.append((l, nu))
    degrees = set()
    for p, tgt, src in named:
        if p is not None:
            if not p.is_homogeneous():
                return None
            degrees.add(p.degree() + tgt - src)
    shifts = [level[4] for level in levels]
    if (len(degrees) > 1
            or _block_degrees(gens0[0], gens1[0], shifts) != (gens0, gens1)):
        return None
    # each map must hold the named entry at every position of each class
    # and nothing else: list.count compares by identity first and then by
    # value, in C
    classes = _layout(len(levels))
    for entries, names in zip((e0, e1), _block_names((x, y), levels)):
        filled = [(cls, p) for cls, p in zip(classes, names) if p is not None]
        if len(entries) != sum(len(cls) for cls, _ in filled):
            return None
        for cls, p in filled:
            if list(map(entries.get, cls)).count(p) != len(cls):
                return None
    omega = exp.base.normal_form(sum_of_products(
        (p, q) for p, q in products if p is not None and q is not None))
    if not omega.is_zero() and (not omega.is_homogeneous()
                                or degrees != {omega.degree() // 2}):
        return None
    return omega


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
