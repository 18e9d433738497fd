"""
Sparse multivariate polynomials with exact rational coefficients.

A coefficient is an ``int`` when it is integral and a ``Fraction`` with
denominator > 1 otherwise; ``Poly`` normalizes to that form once, at
construction, and refuses a ``float``.  Every division of coefficients
goes through ``qdiv``, since ``/`` on two ints would give a float.

Variables come in three kinds, each with a fixed even Z-degree:
``x`` and ``y`` variables have degree 2, ``z`` variables have degree 4.
A variable is a pair ``(kind, index)`` such as ``("x", 1)``.  Variables
order as plain tuples, so x1 < x2 < ... < y1 < ... < z1 only because the
kinds are alphabetical; a new kind must keep them so.  A monomial is a
tuple of (variable, exponent) pairs, variables strictly increasing and
exponents positive, with ``()`` for 1; the ``mono_*`` functions and
``monomials_of_degree`` own it, and no other module spells its pairs.

Monomials are compared in graded lexicographic order: first by weighted
total degree, then lexicographically with x1 > x2 > ... > y1 > ... > z1 > ...
(earlier kind and lower index are "larger").  The order fixes leading
terms for exact division and gives every polynomial one serialization.
"""

from fractions import Fraction

KINDS = ("x", "y", "z")
KIND_RANK = {"x": 0, "y": 1, "z": 2}
VAR_DEGREE = {"x": 2, "y": 2, "z": 4}


class NonExactDivision(ArithmeticError):
    """Raised when a multivariate division leaves a nonzero remainder."""


def as_coeff(c):
    """c in coefficient form: an int if integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
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


def _monomial(exp):
    """The monomial of an exponent dict {variable: positive exponent}."""
    return tuple(sorted(exp.items()))


def mono_power(v, e):
    """The monomial v^e, for e >= 0."""
    return ((v, e),) if e else ()


def mono_variables(mono):
    """The variables of mono, in increasing order."""
    return [v for v, _ in mono]


def mono_exponent(mono, v):
    """The exponent of variable v in mono (0 if v does not occur)."""
    return dict(mono).get(v, 0)


def mono_degree(mono):
    d = 0
    for (kind, _), e in mono:
        d += VAR_DEGREE[kind] * e
    return d


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exp = dict(m1)
    for v, e in m2:
        exp[v] = exp.get(v, 0) + e
    return _monomial(exp)


def mono_div(m1, m2):
    """m1 / m2, or None if m2 does not divide m1."""
    exp = dict(m1)
    for v, e in m2:
        r = exp.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            exp.pop(v, None)
        else:
            exp[v] = r
    return _monomial(exp)


def mono_sort_key(mono):
    # Graded lex.  Within one degree, an earlier variable with a higher
    # exponent makes the monomial larger, so negate the variable's rank.
    lex = tuple((-KIND_RANK[kind], -index, e) for (kind, index), e in mono)
    return (mono_degree(mono), lex)


def mono_str(mono):
    if not mono:
        return "1"
    parts = []
    for v, e in mono:
        parts.append(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e))
    return "*".join(parts)


class Poly:
    """Immutable sparse polynomial: map monomial -> nonzero coefficient,
    an int or a non-integral Fraction (see the module docstring).

    Because it never changes, a Poly keeps what it has computed about
    itself: its monic table (``monic_variables``) and its powers
    (``__pow__``), each made on first use and then shared with every
    caller, so callers must not change them.  They live as long as the
    Poly does."""

    __slots__ = ("terms", "_monic", "_powers")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    c = as_coeff(c)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(c):
        c = as_coeff(c)
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def var(v, e=1):
        if v[0] not in KINDS or v[1] < 1:
            raise ValueError("bad variable %r" % (v,))
        if e < 0:
            raise ValueError("negative power")
        return Poly({mono_power(v, e): 1})

    # -- predicates / views ------------------------------------------

    def is_zero(self):
        return not self.terms

    def variables(self):
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def degree(self):
        """Weighted total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree_in(self, v):
        d = 0
        for mono in self.terms:
            for w, e in mono:
                if w == v and e > d:
                    d = e
        return d

    def monic_variables(self):
        """{v: (power d, constant lead coeff c)} for every variable v with
        self = c*v^d + lower-in-v, read in one pass over the terms.

        The monomials are distinct, so the coefficient of v^d is a constant
        exactly when the pure power v^d is the only term of v-degree d.
        """
        try:
            return self._monic
        except AttributeError:
            pass
        top = {}
        for mono, coeff in self.terms.items():
            pure = len(mono) == 1
            for v, e in mono:
                got = top.get(v)
                if got is None or e > got[0]:
                    top[v] = (e, coeff if pure else None)
                elif e == got[0]:
                    top[v] = (e, None)
        out = {v: data for v, data in top.items() if data[1] is not None}
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
        items = sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]),
                       reverse=True)
        return tuple((mono_sort_key(m), c) for m, c in items)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = as_coeff(other)
            return Poly({m: co * c for m, co in self.terms.items()})
        # mono_mul inlined, with each left monomial's exponent dict made
        # once and copied for each right term
        out = {}
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            if not m1:
                for m2, c2 in right:
                    out[m2] = out.get(m2, 0) + c1 * c2
                continue
            left = dict(m1)
            for m2, c2 in right:
                if m2:
                    exp = left.copy()
                    for v, e in m2:
                        exp[v] = exp.get(v, 0) + e
                    m = _monomial(exp)
                else:
                    m = m1
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        """self^e, multiplied out once per object and exponent."""
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return Poly.const(1)
        if e == 1:
            return self
        try:
            powers = self._powers
        except AttributeError:
            powers = {}
            object.__setattr__(self, "_powers", powers)
        out = powers.get(e)
        if out is None:
            out = powers[e] = self ** (e - 1) * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping):
        """Substitute variables by polynomials; mapping: var -> Poly.

        The substitution is simultaneous: every variable of a term is
        replaced from the mapping, and no replacement is substituted into
        again, so {x1: x2, x2: x1} swaps x1 and x2.  Each power of a
        replacement is expanded once per replacement object (``__pow__``),
        so across every call that substitutes it, and each term costs one
        product: its kept monomial times each term of its substituted part.
        """
        acc = {}
        for mono, coeff in self.terms.items():
            kept = []
            part = None
            for v, e in mono:
                if v not in mapping:
                    kept.append((v, e))
                    continue
                power = mapping[v] ** e
                part = power if part is None else part * power
            if part is None:
                acc[mono] = acc.get(mono, 0) + coeff
                continue
            kept = tuple(kept)
            for m, c in part.terms.items():
                m = mono_mul(kept, m)
                acc[m] = acc.get(m, 0) + coeff * c
        return Poly(acc)

    def renamed(self, mapping):
        """Rename variables; mapping: var -> var.  Names may coincide:
        their exponents then add and their terms' coefficients merge."""
        acc = {}
        for mono, coeff in self.terms.items():
            exp = {}
            for v, e in mono:
                w = mapping.get(v, v)
                exp[w] = exp.get(w, 0) + e
            m = _monomial(exp)
            acc[m] = acc.get(m, 0) + coeff
        return Poly(acc)

    def diff(self, v):
        """Formal partial derivative with respect to variable v."""
        out = {}
        for mono, coeff in self.terms.items():
            exp = dict(mono)
            e = exp.get(v, 0)
            if not e:
                continue
            if e == 1:
                exp.pop(v)
            else:
                exp[v] = e - 1
            m = _monomial(exp)
            out[m] = out.get(m, 0) + coeff * e
        return Poly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]),
                       reverse=True)
        parts = []
        for mono, coeff in items:
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono_str(mono)
            elif coeff == -1:
                body = "-" + mono_str(mono)
            else:
                body = "%s*%s" % (coeff, mono_str(mono))
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts)

    __repr__ = __str__


def monomials_of_degree(variables, degree):
    """All monomials in variables, a sorted list, of weighted degree
    exactly degree: the first variable's exponent varies slowest."""
    if not variables:
        return [()] if degree == 0 else []
    v, w = variables[0], var_degree(variables[0])
    return [mono_power(v, e) + m for e in range(degree // w + 1)
            for m in monomials_of_degree(variables[1:], degree - e * w)]


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
