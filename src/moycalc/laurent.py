"""Integer Laurent polynomials in q, with exact division and [n].

A ``LaurentPoly`` is a ``poly._Terms`` value keyed by the exponent of q:
it shares ``Poly``'s number policy (``poly.as_coeff``), equality, hashing,
powers and printer, and takes only integral exponents and coefficients.
"""

from .poly import DomainError, _Terms, as_coeff


class LaurentDivisionError(DomainError, ArithmeticError):
    """Division of Laurent polynomials left a remainder."""


class LaurentPoly(_Terms):
    """Finite map exponent -> nonzero integer coefficient; its powers are
    cached as ``Poly``'s are."""

    __slots__ = ("terms", "_powers")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    e, c = as_coeff(e), as_coeff(c)
                    if type(e) is not int or type(c) is not int:
                        raise ValueError("non-integral Laurent term %r: %r"
                                         % (e, c))
                if c:
                    clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def evaluate_at_one(self):
        return sum(self.terms.values())

    def exact_div(self, other):
        """Exact quotient; raises LaurentDivisionError on a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        top = max(other.terms)
        bot = min(other.terms)
        lead = other.terms[top]
        rem = dict(self.terms)
        quo = {}
        while rem:
            e = max(rem)
            c = rem[e]
            if e - top + bot < min(rem) or c % lead:
                raise LaurentDivisionError("remainder in Laurent division")
            q = c // lead
            quo[e - top] = quo.get(e - top, 0) + q
            for e2, c2 in other.terms.items():
                k = e - top + e2
                rem[k] = rem.get(k, 0) - q * c2
                if not rem[k]:
                    del rem[k]
        return LaurentPoly(quo)

    def _ordered(self):
        return sorted(self.terms.items())

    @staticmethod
    def _key_str(e):
        return "q" if e == 1 else "q^%d" % e

    def to_json(self):
        return {str(e): c for e, c in sorted(self.terms.items())}


def quantum_integer(n):
    """[n] = q^{n-1} + q^{n-3} + ... + q^{1-n}."""
    if n < 0:
        raise ValueError("quantum integer of a negative number")
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})
