"""
Power sums in two elementary symmetric functions, difference quotients,
and the Jacobi algebra of the two-variable potential.

Throughout, f_n denotes the unique polynomial with
f_n(a+b, ab) = a^{n+1} + b^{n+1}.  Its two slots carry Z-degrees 2 and 4,
matching the y/z variable kinds.
"""

from .poly import Poly, exact_div, qdiv
from .quotient import QuotientRing, TriangularityViolation


class ReductionFailed(RuntimeError):
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


def pi_poly(n, v1=("x", 1), v2=("x", 2)):
    """pi = sum_{k=0}^{n} v1^k v2^{n-k}, so pi*(v1 - v2) = v1^{n+1} - v2^{n+1}."""
    out = Poly()
    for k in range(n + 1):
        out = out + Poly.var(v1) ** k * Poly.var(v2) ** (n - k)
    return out


def uv_polys(n, xs=(("x", 1), ("x", 2), ("x", 3), ("x", 4))):
    """The wide-edge difference quotients (u, v) over four x-variables."""
    x1, x2, x3, x4 = (Poly.var(v) for v in xs)
    s12, p12 = x1 + x2, x1 * x2
    s34, p34 = x3 + x4, x3 * x4
    u = exact_div(power_sum_at(n, s12, p12) - power_sum_at(n, s34, p12),
                  s12 - s34)
    v = exact_div(power_sum_at(n, s34, p12) - power_sum_at(n, s34, p34),
                  p12 - p34)
    return u, v


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
    d = p.degree_in(v)
    if d == 0:
        raise ReductionFailed("%s does not involve %s%d" % (p, *v))
    c = p.coefficient_in(v, d)
    if not c.is_constant() or c.is_zero():
        raise ReductionFailed("%s is not monic in %s%d" % (p, *v))
    c = c.constant_value()
    repl = -(p * qdiv(1, c) - Poly.var(v, d))
    return v, d, repl
