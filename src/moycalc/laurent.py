"""Integer Laurent polynomials in q, with exact division and [n]."""


class LaurentDivisionError(ArithmeticError):
    """Division of Laurent polynomials left a remainder."""


class LaurentPoly:
    """Finite map exponent -> nonzero integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    if int(e) != e or int(c) != c:
                        raise ValueError("non-integral Laurent term %r: %r"
                                         % (e, c))
                    e, c = int(e), int(c)
                if c:
                    clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self^k, by repeated squaring."""
        if k < 0:
            raise ValueError("negative power")
        if k <= 1:
            return self if k else LaurentPoly.const(1)
        half = self ** (k // 2)
        square = half * half
        return square * self if k % 2 else square

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))   # equal to that int
        return hash(frozenset(self.terms.items()))

    def shifted(self, m):
        """Multiply by q^m."""
        return LaurentPoly({e + m: c for e, c in self.terms.items()})

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

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(c)
            else:
                q = "q^%d" % e if e != 1 else "q"
                if c == 1:
                    body = q
                elif c == -1:
                    body = "-" + q
                else:
                    body = "%d*%s" % (c, q)
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {str(e): c for e, c in sorted(self.terms.items())}


def quantum_integer(n):
    """[n] = q^{n-1} + q^{n-3} + ... + q^{1-n}."""
    if n < 0:
        raise ValueError("quantum integer of a negative number")
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})
