"""Power sums in elementary symmetric functions and the Jacobi algebra."""

from fractions import Fraction
from math import comb

import pytest

from moycalc.laurent import LaurentPoly
from moycalc.poly import Poly, exact_div, mono_power
from moycalc.quotient import QuotientRing
from moycalc.symm import (_monic_rule, jacobi_algebra, pi_poly,
                          power_sum_at, power_sum_expand, slot_quotients,
                          uv_polys)

X1, X2, Y1, Z1 = ("x", 1), ("x", 2), ("y", 1), ("z", 1)


def v(name):
    return Poly.var(name)


def closed_formula(n):
    """Independent oracle: f = y^{n+1}
    + (n+1) * sum_{1<=2i<=n+1} ((-1)^i / i) * C(n-i, i-1) * y^{n+1-2i} z^i.
    """
    out = v(Y1) ** (n + 1)
    i = 1
    while 2 * i <= n + 1:
        coeff = Fraction((-1) ** i * (n + 1), i) * comb(n - i, i - 1)
        out = out + coeff * v(Y1) ** (n + 1 - 2 * i) * v(Z1) ** i
        i += 1
    return out


def test_newton_matches_closed_formula():
    for n in range(0, 13):
        assert power_sum_expand(n) == closed_formula(n)


def test_defining_identity():
    # f(x1+x2, x1*x2) = x1^{n+1} + x2^{n+1}
    for n in range(0, 9):
        lhs = power_sum_at(n, v(X1) + v(X2), v(X1) * v(X2))
        assert lhs == v(X1) ** (n + 1) + v(X2) ** (n + 1)


def test_pi_poly():
    for n in range(1, 7):
        pi = pi_poly(n)
        assert pi * (v(X1) - v(X2)) == v(X1) ** (n + 1) - v(X2) ** (n + 1)


def test_uv_polys_telescope():
    xs = (("x", 1), ("x", 2), ("x", 3), ("x", 4))
    for n in range(2, 6):
        u, f_v = uv_polys(n, xs)
        s12 = v(xs[0]) + v(xs[1])
        p12 = v(xs[0]) * v(xs[1])
        s34 = v(xs[2]) + v(xs[3])
        p34 = v(xs[2]) * v(xs[3])
        total = u * (s12 - s34) + f_v * (p12 - p34)
        want = (v(xs[0]) ** (n + 1) + v(xs[1]) ** (n + 1)
                - v(xs[2]) ** (n + 1) - v(xs[3]) ** (n + 1))
        assert total == want


def test_slot_quotients_telescope_at_polynomials():
    # the division-free quotients times the slot differences give back
    # the differences of f_n, at arguments that are not variables
    s = v(X1) + 2 * v(X2)
    t = v(Y1) - 3
    p = v(X1) * v(X2) + v(Z1)
    q = 2 * v(Z1) + v(Y1) ** 2
    for n in range(3, 9):
        u, f_v = slot_quotients(n, s, t, p, q)
        assert u * (s - t) == power_sum_at(n, s, p) - power_sum_at(n, t, p)
        assert f_v * (p - q) == power_sum_at(n, t, p) - power_sum_at(n, t, q)


def test_monic_rule_divides_by_the_leading_coefficient():
    var, d, repl = _monic_rule(3 * v(Y1) ** 2 + 6 * v(Z1) + 2 * v(Y1), Y1)
    assert (var, d) == (Y1, 2)
    assert repl == -2 * v(Z1) - Fraction(2, 3) * v(Y1)
    assert type(repl.terms[mono_power(Z1, 1)]) is int
    assert type(repl.terms[mono_power(Y1, 1)]) is Fraction


def test_jacobi_algebra_kills_partials():
    for n in range(3, 8):
        ring = jacobi_algebra(n)
        f = power_sum_expand(n)
        assert ring.normal_form(f.diff(Y1)).is_zero()
        assert ring.normal_form(f.diff(Z1)).is_zero()


def test_jacobi_algebra_graded_dimension():
    # even n: Q[y,z]/<y^{n-1}, z^{n/2}>; odd n: Q[y,z]/<y^n, z^{(n-1)/2}>
    for n in range(3, 9):
        ring = jacobi_algebra(n)
        if n % 2 == 0:
            ey, ez = n - 1, n // 2
        else:
            ey, ez = n, (n - 1) // 2
        want = (QuotientRing()
                .with_rule(Y1, ey, Poly())
                .with_rule(Z1, ez, Poly())
                .graded_dimension())
        assert ring.graded_dimension() == want
        assert ring.graded_dimension().evaluate_at_one() == n * (n - 1) // 2
