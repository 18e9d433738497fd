"""Laurent polynomials in q and quantum integers."""

from fractions import Fraction

import pytest

from moycalc.laurent import LaurentDivisionError, LaurentPoly, quantum_integer


def test_quantum_integers():
    assert quantum_integer(0) == LaurentPoly()
    assert quantum_integer(1) == LaurentPoly({0: 1})
    assert quantum_integer(2) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_integer(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})


def test_quantum_integer_recurrence():
    # [n+1] = q^n + q^-n + ... follows [2][n] = [n+1] + [n-1]
    for n in range(1, 9):
        lhs = quantum_integer(2) * quantum_integer(n)
        rhs = quantum_integer(n + 1) + quantum_integer(n - 1)
        assert lhs == rhs


def test_negative_power_raises():
    assert quantum_integer(3) ** 0 == LaurentPoly({0: 1})
    assert quantum_integer(2) ** 2 == quantum_integer(3) + 1
    with pytest.raises(ValueError):
        quantum_integer(3) ** -1


def test_non_integral_terms_raise():
    for terms in ({0: Fraction(1, 2)}, {Fraction(1, 2): 3}, {1: 2.7}):
        with pytest.raises(ValueError, match="non-integral"):
            LaurentPoly(terms)
    # integral values of other types are still accepted
    assert LaurentPoly({Fraction(4, 2): 3.0}) == LaurentPoly({2: 3})


def test_constants_hash_like_their_ints():
    # equal values must hash alike, or a set or dict keeps both
    for c in (0, 3, -2):
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)
        assert len({c, LaurentPoly.const(c)}) == 1
    assert LaurentPoly() == 0 and len({0, LaurentPoly()}) == 1
    assert hash(LaurentPoly({1: 2})) == hash(LaurentPoly({1: 2}))


def test_exact_div():
    for n in range(2, 9):
        prod = quantum_integer(n) * quantum_integer(n - 1)
        half = prod.exact_div(quantum_integer(2))
        assert half * quantum_integer(2) == prod
    with pytest.raises(LaurentDivisionError):
        quantum_integer(3).exact_div(quantum_integer(2))


def test_str_format():
    p = LaurentPoly({-2: 1, 0: 3, 1: -2, 5: 1})
    assert str(p) == "q^-2 + 3 - 2*q + q^5"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({1: 1})) == "q"
    assert str(LaurentPoly({-1: -1})) == "-q^-1"


def test_json_roundtrip():
    p = LaurentPoly({-2: 1, 0: 3, 5: -1})
    js = p.to_json()
    assert js == {"-2": 1, "0": 3, "5": -1}
    assert LaurentPoly({int(k): c for k, c in js.items()}) == p


def test_shift_and_evaluate():
    p = quantum_integer(4)
    assert p.shifted(2) == LaurentPoly({-1: 1, 1: 1, 3: 1, 5: 1})
    assert p.evaluate_at_one() == 4
