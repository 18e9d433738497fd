"""
Sparse multivariate polynomials with exact rational coefficients, and the
value core they share with ``laurent.LaurentPoly``.

A coefficient is an ``int`` when it is integral and a ``Fraction`` with
denominator > 1 otherwise.  ``as_coeff`` is the one gate that decides
what a number is, for both polynomial classes: a bool is the int it is,
an integral ``Fraction`` becomes an int, and a ``float`` (or anything
else) is refused with ``TypeError``.  ``Poly`` normalizes to that form
once, at construction.  Every division of coefficients goes through
``qdiv``, since ``/`` on two ints would give a float.

``_Terms`` is that shared core: a map ``terms`` from a key to a nonzero
coefficient, in which key 0 (``UNIT``, or q^0) is the constant term.  It
owns ``const``, ``is_zero``, negation, subtraction, powers, equality and
hashing (a constant equals and hashes as its number), and the printer.
Each class keeps its own key rule, ``__add__`` and ``__mul__``, which take
a number as its constant.

Variables come in three kinds, each with a fixed even Z-degree:
``x`` and ``y`` variables have degree 2, ``z`` variables have degree 4.
A variable is a pair ``(kind, index)`` such as ``("x", 1)``.  Variables
order as plain tuples, so x1 < x2 < ... < y1 < ... < z1 only because the
kinds are alphabetical; a new kind must keep them so.

A monomial is one non-negative int of packed exponent fields, each W bits
wide.  Field 0, the lowest W bits, holds the weighted degree.  Variable
(kind, i) owns field 3(i - 1) + rank(kind) + 1, with x, y and z at ranks
0, 1 and 2, and holds its exponent there.  The monomial 1 is ``UNIT``, 0.
So a product of monomials is an integer sum, a degree is a mask, and an
exponent is a shift and a mask.  A variable's field comes from its kind
and index by arithmetic alone: there is no registry of variables, and W
is one constant, not an option.  The ``mono_*`` functions,
``monomials_of_degree``, ``sum_of_products``, ``staircase`` and ``UNIT``
own the layout, and no other module reads or builds the int.

No field carries into the next.  Every variable's weight is at least 2,
so no exponent exceeds half the degree, and a monomial whose degree is
below 2^(W-1) has every field below 2^(W-1).  The sum of two such
monomials has every field below 2^W, and its degree reaches 2^(W-1)
exactly when bit W - 1 is set; so does a renamed one, whose degree at
most doubles.  Every function that returns a monomial, ``Poly``
construction included, refuses a degree of 2^(W-1) or more with
``MonomialOverflow``; nothing wraps.

The same bound makes divisibility by any of several powers v^d (d >= 1,
one per variable) one add and one mask: ``staircase`` gives the pair
(offset, high), with 2^(W-1) - d in v's field of offset and 2^(W-1) in
v's field of high, and m is divisible by some v^d exactly when
(m + offset) & high is nonzero.  A field e below 2^(W-1) becomes
e + 2^(W-1) - d, which is below 2^W, so no field carries into the next,
and it has bit W - 1 set exactly when e >= d.

One helper, ``_fields``, decodes a monomial, stepping from its lowest set
bit.  The per-term work does not call it: ``degree_in``,
``monic_variables``, ``substitute``, ``renamed`` and ``diff`` go one
variable at a time by shift and mask, and the variables that occur are
read once from the bitwise or of the monomials (``Poly.variables``, kept
with the Poly).

Monomials are compared in graded lexicographic order: first by weighted
total degree, then lexicographically with x1 > x2 > ... > y1 > ... > z1 > ...
(earlier kind and lower index are "larger").  The order fixes leading
terms for exact division and gives every polynomial one serialization.
``mono_sort_key`` decodes a monomial to that order's (degree, lex) key.
"""

from fractions import Fraction
from functools import reduce
from operator import or_

KINDS = ("x", "y", "z")
KIND_RANK = {"x": 0, "y": 1, "z": 2}
VAR_DEGREE = {"x": 2, "y": 2, "z": 4}

W = 32
_MASK = (1 << W) - 1
_LIMIT = 1 << (W - 1)
UNIT = 0


class DomainError(Exception):
    """The root of every exception the package raises for its input, which
    the CLI reports; each subclass also keeps a builtin base."""


class _Immutable:
    """Refuses assigning and deleting attributes; a value class sets its
    slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class NonExactDivision(DomainError, ArithmeticError):
    """Raised when a multivariate division leaves a nonzero remainder."""


class MonomialOverflow(DomainError, OverflowError):
    """A monomial's degree does not fit its packed field."""


def _overflow(degree):
    return MonomialOverflow("monomial degree %d is not below 2^%d"
                            % (degree, W - 1))


def as_coeff(c):
    """c in coefficient form: an int if integral, else a Fraction.  A bool
    is the int it is; a float, or any other type, is refused."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if type(c) is bool:
        return int(c)
    raise TypeError("coefficient must be an int or a Fraction, not %s"
                    % type(c).__name__)


def qdiv(a, b):
    """The exact quotient a / b of two coefficients, in coefficient form."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return as_coeff(Fraction(a, b))


def var_degree(v):
    return VAR_DEGREE[v[0]]


def var_name(v):
    return "%s%d" % v


def _shift(v):
    """The bit offset of variable v's field."""
    return W * (3 * v[1] + KIND_RANK[v[0]] - 2)


def _fields(mono):
    """[(variable, bit offset, exponent)] for the nonzero fields of mono,
    in field order.  Each step jumps to the field of the lowest set bit
    left, so a run of empty fields costs one step."""
    out = []
    s = W
    rest = mono >> W
    while rest:
        skip = ((rest & -rest).bit_length() - 1) // W * W
        rest >>= skip
        s += skip
        f = s // W - 1
        out.append(((KINDS[f % 3], f // 3 + 1), s, rest & _MASK))
        rest >>= W
        s += W
    return out


def mono_power(v, e):
    """The monomial v^e, for e >= 0."""
    d = e * VAR_DEGREE[v[0]]
    if d >= _LIMIT:
        raise _overflow(d)
    return (e << _shift(v)) + d


def mono_variables(mono):
    """The variables of mono, in increasing order."""
    return sorted(v for v, _, _ in _fields(mono))


def mono_exponent(mono, v):
    """The exponent of variable v in mono (0 if v does not occur)."""
    return mono >> _shift(v) & _MASK


def mono_degree(mono):
    return mono & _MASK


def mono_mul(m1, m2):
    m = m1 + m2
    if m & _LIMIT:
        raise _overflow(m & _MASK)
    return m


def mono_div(m1, m2):
    """m1 / m2, or None if m2 does not divide m1."""
    for _, s, e in _fields(m2):
        if m1 >> s & _MASK < e:
            return None
    return m1 - m2


def staircase(pairs):
    """(offset, high) for the powers v^d of the (v, d) pairs, at most one
    per variable and each d >= 1: a monomial m is divisible by one of them
    exactly when (m + offset) & high is nonzero (the module docstring)."""
    offset = high = 0
    for v, d in pairs:
        s = _shift(v)
        offset += (_LIMIT - d) << s
        high += _LIMIT << s
    return offset, high


def mono_sort_key(mono):
    # Graded lex.  Within one degree, an earlier variable with a higher
    # exponent makes the monomial larger, so negate the variable's rank.
    lex = tuple(sorted(((-KIND_RANK[kind], -index, e)
                        for (kind, index), _, e in _fields(mono)),
                       reverse=True))
    return (mono & _MASK, lex)


def mono_str(mono):
    parts = []
    for v, _, e in sorted(_fields(mono)):
        parts.append(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e))
    return "*".join(parts)


class _Terms(_Immutable):
    """The value core of ``Poly`` and ``LaurentPoly`` (the module
    docstring).  A class declares the slots ``terms`` and ``_powers``,
    its ``__add__`` and ``__mul__``, and the printer's two hooks:
    ``_ordered()``, the terms in print order, and ``_key_str``, which
    writes a nonconstant key."""

    __slots__ = ()

    @classmethod
    def const(cls, c):
        return cls({UNIT: c})

    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, e):
        """self^e, multiplied out once per object and exponent: every
        power from the largest one cached below e up to e is cached on the
        way, each one product from the one before, in a loop whatever e
        is."""
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return type(self).const(1)
        if e == 1:
            return self
        try:
            powers = self._powers
        except AttributeError:
            powers = {}
            object.__setattr__(self, "_powers", powers)
        out = powers.get(e)
        if out is None:
            k = e - 1
            while k > 1 and k not in powers:
                k -= 1
            out = powers.get(k, self)
            for j in range(k + 1, e + 1):
                out = powers[j] = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({UNIT: other} if other else {})
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {UNIT}:
            return hash(self.terms.get(UNIT, 0))    # equal to that number
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self._ordered():
            if not key:
                body = str(coeff)
            elif coeff == 1:
                body = self._key_str(key)
            elif coeff == -1:
                body = "-" + self._key_str(key)
            else:
                body = "%s*%s" % (coeff, self._key_str(key))
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts)

    __repr__ = __str__


class Poly(_Terms):
    """Immutable sparse polynomial: map monomial -> nonzero coefficient,
    an int or a non-integral Fraction (see the module docstring).

    Because it never changes, a Poly keeps what it has computed about
    itself: its variable set (``variables``), its monic table
    (``monic_variables``) and its powers (``__pow__``), each made on first
    use and then shared with every caller, so callers must not change
    them.  They live as long as the Poly does."""

    __slots__ = ("terms", "_variables", "_monic", "_powers")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                # a sum of monomials below the limit sets this bit exactly
                # when its degree reaches the limit (the module docstring)
                if mono & _LIMIT:
                    raise _overflow(mono & _MASK)
                if type(c) is not int:
                    c = as_coeff(c)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------

    @staticmethod
    def var(v, e=1):
        if v[0] not in KINDS or v[1] < 1:
            raise ValueError("bad variable %r" % (v,))
        if e < 0:
            raise ValueError("negative power")
        return Poly({mono_power(v, e): 1})

    # -- predicates / views ------------------------------------------

    def _occupied(self):
        """The bitwise or of the monomials: a field is nonzero in it
        exactly when it is nonzero in some monomial."""
        return reduce(or_, self.terms, 0)

    def variables(self):
        """The frozenset of variables that occur."""
        try:
            return self._variables
        except AttributeError:
            pass
        out = frozenset(v for v, _, _ in _fields(self._occupied()))
        object.__setattr__(self, "_variables", out)
        return out

    def degree(self):
        """Weighted total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono & _MASK for mono in self.terms)

    def is_homogeneous(self):
        return len({mono & _MASK for mono in self.terms}) <= 1

    def degree_in(self, v):
        s = _shift(v)
        d = 0
        for mono in self.terms:
            e = mono >> s & _MASK
            if e > d:
                d = e
        return d

    def monic_variables(self):
        """{v: (power d, constant lead coeff c)} for every variable v with
        self = c*v^d + lower-in-v, read one variable at a time.

        The monomials are distinct, so the coefficient of v^d is a constant
        exactly when the pure power v^d is the only term of v-degree d.
        """
        try:
            return self._monic
        except AttributeError:
            pass
        terms = self.terms
        out = {}
        for v, s, _ in _fields(self._occupied()):
            d = count = 0
            for mono in terms:
                e = mono >> s & _MASK
                if e > d:
                    d, count = e, 1
                elif e == d:
                    count += 1
            if count == 1:    # is that one term the pure power v^d?
                lead = terms.get((d << s) + d * VAR_DEGREE[v[0]])
                if lead is not None:
                    out[v] = (d, lead)
        object.__setattr__(self, "_monic", out)
        return out

    def leading(self):
        """(monomial, coefficient) of the leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=mono_sort_key)
        return mono, self.terms[mono]

    def sort_key(self):
        """Total-order key so polynomials can be sorted deterministically."""
        return tuple(sorted(((mono_sort_key(m), c)
                             for m, c in self.terms.items()), reverse=True))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        # mono_mul inlined: construction refuses a product past the limit
        out = {}
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def substitute(self, mapping):
        """Substitute variables by polynomials; mapping: var -> Poly.

        The substitution is simultaneous: every variable of a term is
        replaced from the mapping, and no replacement is substituted into
        again, so {x1: x2, x2: x1} swaps x1 and x2.  Each power of a
        replacement is expanded once per replacement object (``__pow__``),
        so across every call that substitutes it, and each term costs one
        product: its kept monomial times each term of its substituted part.
        A Poly in none of the mapped variables is returned as it is.
        """
        # each substituted v: its offset, v as a packed monomial, its value
        occupied = self._occupied()
        fields = [(s, (1 << s) + VAR_DEGREE[v[0]], p)
                  for v, p in mapping.items()
                  if occupied >> (s := _shift(v)) & _MASK]
        if not fields:
            return self
        acc = {}
        for mono, coeff in self.terms.items():
            kept = mono
            part = None
            for s, unit, p in fields:
                e = mono >> s & _MASK
                if e:
                    kept -= e * unit
                    power = p ** e
                    part = power if part is None else part * power
            if part is None:
                acc[mono] = acc.get(mono, 0) + coeff
                continue
            for m, c in part.terms.items():
                m += kept
                acc[m] = acc.get(m, 0) + coeff * c
        return Poly(acc)

    def renamed(self, mapping):
        """Rename variables; mapping: var -> var.  Names may coincide:
        their exponents then add and their terms' coefficients merge."""
        # moving exponent e from v to t adds e * (t - v), with t and v as
        # packed monomials
        occupied = self._occupied()
        moves = []
        for v, t in mapping.items():
            s = _shift(v)
            if t != v and occupied >> s & _MASK:
                moves.append((s, (1 << _shift(t)) + VAR_DEGREE[t[0]]
                              - (1 << s) - VAR_DEGREE[v[0]]))
        acc = {}
        for mono, coeff in self.terms.items():
            # every exponent is read from the monomial as given, so names
            # that swap or coincide move simultaneously
            m = mono
            for s, step in moves:
                e = mono >> s & _MASK
                if e:
                    m += e * step
            acc[m] = acc.get(m, 0) + coeff
        return Poly(acc)

    def diff(self, v):
        """Formal partial derivative with respect to variable v."""
        s, unit = _shift(v), mono_power(v, 1)
        out = {}
        for mono, coeff in self.terms.items():
            e = mono >> s & _MASK
            if e:
                m = mono - unit
                out[m] = out.get(m, 0) + coeff * e
        return Poly(out)

    def _ordered(self):
        return sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]),
                      reverse=True)

    _key_str = staticmethod(mono_str)


def monomials_of_degree(variables, degree):
    """All monomials in variables, a sorted list, of weighted degree
    exactly degree: the first variable's exponent varies slowest."""
    if degree >= _LIMIT:
        raise _overflow(degree)
    if not variables:
        return [UNIT] if degree == 0 else []
    v, w = variables[0], var_degree(variables[0])
    return [mono_power(v, e) + m for e in range(degree // w + 1)
            for m in monomials_of_degree(variables[1:], degree - e * w)]


def sum_of_products(pairs):
    """The sum of f*g over the pairs (f, g) of Polys, each product's terms
    added straight into one dict: adding the products one at a time would
    copy the whole running sum for each one."""
    acc = {}
    for f, g in pairs:
        right = g.terms.items()
        for m1, c1 in f.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                acc[m] = acc.get(m, 0) + c1 * c2
    return Poly(acc)


def exact_div(num, den):
    """Exact single-divisor division: the q with q*den == num.

    Raises NonExactDivision when no such polynomial exists.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm_d, lc_d = den.leading()
    quo = Poly()
    rem = num
    while not rem.is_zero():
        lm_r, lc_r = rem.leading()
        m = mono_div(lm_r, lm_d)
        if m is None:
            raise NonExactDivision("remainder %s" % rem)
        t = Poly({m: qdiv(lc_r, lc_d)})
        quo = quo + t
        rem = rem - t * den
    return quo
