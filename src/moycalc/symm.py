"""
Power sums in two elementary symmetric functions, difference quotients,
and the Jacobi algebra of the two-variable potential.

Throughout, f_n denotes the unique polynomial with
f_n(a+b, ab) = a^{n+1} + b^{n+1}.  Its two slots carry Z-degrees 2 and 4,
matching the y/z variable kinds.  The difference quotients of f_n, the
entries of every piece's factorization, are sums of complete homogeneous
polynomials h_j(a, b) = (a^{j+1} - b^{j+1})/(a - b), so they are built
without dividing.
"""

from .poly import DomainError, Poly, mono_exponent, qdiv, sum_of_products
from .quotient import QuotientRing, TriangularityViolation


class ReductionFailed(DomainError, RuntimeError):
    """A triangularization or reduction that must succeed did not."""


def power_sum_at(n, s1, s2):
    """f_n evaluated at polynomials (s1, s2), by the Newton recursion
    p_k = s1*p_{k-1} - s2*p_{k-2} with p_0 = 2, p_1 = s1; returns p_{n+1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = Poly.const(2), s1
    for _ in range(n):
        prev, cur = cur, s1 * cur - s2 * prev
    return cur


def power_sum_expand(n, s1=("y", 1), s2=("z", 1)):
    """f_n as a Poly; the symmetric-function slots default to (y1, z1)."""
    return power_sum_at(n, Poly.var(s1), Poly.var(s2))


def _h(j, a, b):
    """The complete homogeneous h_j(a, b) = sum_{i=0}^{j} a^i b^{j-i};
    0 for j < 0.  It is the quotient (a^{j+1} - b^{j+1})/(a - b)."""
    return sum_of_products((a ** i, b ** (j - i)) for i in range(j + 1))


def pi_poly(n, v1=("x", 1), v2=("x", 2)):
    """pi = h_n(v1, v2), so pi*(v1 - v2) = v1^{n+1} - v2^{n+1}."""
    return _h(n, Poly.var(v1), Poly.var(v2))


def slot_quotients(n, s, t, p, q):
    """The difference quotients of f = f_n in each slot, at polynomials:
    u = (f(s,p) - f(t,p))/(s - t) and v = (f(t,p) - f(t,q))/(p - q).

    With f = sum_k c_k s^{n+1-2k} p^k, u = sum_k c_k p^k h_{n-2k}(s, t)
    and v = sum_k c_k t^{n+1-2k} h_{k-1}(p, q): no division is needed.
    """
    terms = [(mono_exponent(mono, ("z", 1)), c)
             for mono, c in power_sum_expand(n).terms.items()]
    return (sum_of_products((c * p ** k, _h(n - 2 * k, s, t))
                            for k, c in terms),
            sum_of_products((c * t ** (n + 1 - 2 * k), _h(k - 1, p, q))
                            for k, c in terms))


def uv_polys(n, xs=(("x", 1), ("x", 2), ("x", 3), ("x", 4))):
    """The wide-edge difference quotients (u, v) over four x-variables:
    the slot quotients at s, t = x1 + x2, x3 + x4 and p, q = x1x2, x3x4."""
    x1, x2, x3, x4 = (Poly.var(v) for v in xs)
    return slot_quotients(n, x1 + x2, x3 + x4, x1 * x2, x3 * x4)


def jacobi_algebra(n, y=("y", 1), z=("z", 1)):
    """Triangular presentation of Q[y,z] / <df/dy, df/dz> for f = f_n.

    The presentation has one rule per variable: a power of y and a power
    of z, each rewriting to lower terms.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    f = power_sum_expand(n, y, z)
    fy, fz = f.diff(y), f.diff(z)
    # df/dz is monic in y for even n and monic in z for odd n; solving it
    # first makes the reduced df/dy monic in the other variable.
    first_var, second_var = (y, z) if n % 2 == 0 else (z, y)
    try:
        ring = QuotientRing()
        ring = ring.with_rule(*_monic_rule(fz, first_var))
        ring = ring.with_rule(*_monic_rule(ring.normal_form(fy), second_var))
    except TriangularityViolation as exc:
        raise ReductionFailed("Jacobi triangularization failed: %s" % exc)
    return ring


def _monic_rule(p, v):
    """Read p = c*v^d + lower (in v) as the rule v^d -> -(p - c v^d)/c."""
    if v not in p.variables():
        raise ReductionFailed("%s does not involve %s%d" % (p, *v))
    data = p.monic_variables().get(v)
    if data is None:
        raise ReductionFailed("%s is not monic in %s%d" % (p, *v))
    d, c = data
    repl = -(p * qdiv(1, c) - Poly.var(v, d))
    return v, d, repl
