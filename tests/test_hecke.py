"""An oracle for the bracket of every braid closure: the Ocneanu trace on
the Hecke algebra, on plain {exponent: int} dicts and nothing of moycalc.

With z = q^-1 - q and T_i^2 = z T_i + 1, a letter between strands i and
i + 1 (0-based) maps to T = T_(i+1):

  xplus  = q^n T
  xminus = q^-n T^-1 = q^-n (T - z)
  wide   = q^-1 - T

The skein xplus = q^(n-1) id - q^n W puts all three in H_m.  The closure
of a word on m strands is the Ocneanu trace of its product, fixed by
tr(1) = [n]^m, tr_m(x) = [n] tr_(m-1)(x) and tr_m(x T_(m-1)) =
q^-n tr_(m-1)(x) for x in H_(m-1) (Jones, "Hecke algebra representations
of braid groups and link polynomials", Ann. Math. 126, 1987).  These
rules agree with the bracket's: a kink of either sign is worth
q^(n-1) [n] - q^n [n-1] = 1, and z [n] = q^-n - q^n.

An element of H_m is a dict {w: coefficient} over the permutation basis
T_w, w a tuple in one-line notation.  T_w T_i is T_(w s_i) when w s_i is
longer than w, and z T_w + T_(w s_i) otherwise; T_i T_w is the same with
s_i w.  A T_w with w outside S_(m-1) is T_u T_(m-1) T_(m-2) ... T_(p+1),
where p is the position of m - 1 in w and u, which is w with m - 1
moved to the end, lies in S_(m-1); the trace of T_w is then q^-n times
the trace of T_(m-2) ... T_(p+1) T_u in H_(m-1).
"""

import hashlib
import random
from functools import lru_cache

import pytest

from moycalc.moybracket import StuckGraph, bracket_text

from test_moybracket import _closure_text, _load_workloads


def _add(acc, poly, scale=1):
    """Add scale * poly into the Laurent polynomial acc."""
    for e, c in poly.items():
        acc[e] = acc.get(e, 0) + scale * c
        if not acc[e]:
            del acc[e]


def _mul(p, r):
    """The product of two Laurent polynomials."""
    out = {}
    for e1, c1 in p.items():
        _add(out, {e1 + e2: c1 * c2 for e2, c2 in r.items()})
    return out


def _qint(k):
    """[k] = q^(k-1) + q^(k-3) + ... + q^(1-k)."""
    return {k - 1 - 2 * j: 1 for j in range(k)}


Z = {-1: 1, 1: -1}      # z = q^-1 - q


def _times_t(element, i, left=False):
    """element T_i, or T_i element when left, for the generator T_i that
    swaps the places (or, from the left, the values) i - 1 and i."""
    out = {}
    for w, c in element.items():
        if left:
            a, b = w.index(i - 1), w.index(i)
            up = a < b
        else:
            a, b = i - 1, i
            up = w[a] < w[b]
        v = list(w)
        v[a], v[b] = v[b], v[a]
        _add(out.setdefault(tuple(v), {}), c)
        if not up:
            _add(out.setdefault(w, {}), _mul(Z, c))
    return {w: c for w, c in out.items() if c}


def _letter(element, kind, i, n):
    """element times the letter (kind, i) at n, which is alpha + beta T."""
    alpha, beta = {"xplus": ({}, {n: 1}),
                   "xminus": ({1 - n: 1, -1 - n: -1}, {-n: 1}),
                   "wide": ({-1: 1}, {0: -1})}[kind]
    out = {}
    for factor, part in ((alpha, element), (beta, _times_t(element, i + 1))):
        for w, c in part.items():
            _add(out.setdefault(w, {}), _mul(factor, c))
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _trace(w, n):
    """The Ocneanu trace of T_w at n, as a tuple of (exponent, coefficient)
    pairs."""
    m = len(w)
    if not m:
        return ((0, 1),)
    if w[-1] == m - 1:
        return tuple(_mul(_qint(n), dict(_trace(w[:-1], n))).items())
    p = w.index(m - 1)
    x = {w[:p] + w[p + 1:] + (m - 1,): {0: 1}}
    for j in range(p + 1, m - 1):
        x = _times_t(x, j, left=True)
    out = {}
    for v, c in x.items():
        _add(out, _mul(c, dict(_trace(v[:-1], n))))
    return tuple((e - n, c) for e, c in out.items())


def hecke_bracket(n, strands, word):
    """The bracket of the closure of word on strands at n, as a dict
    {exponent: coefficient} without zeros."""
    element = {tuple(range(strands)): {0: 1}}
    for kind, i in word:
        element = _letter(element, kind, i, n)
    out = {}
    for w, c in element.items():
        _add(out, _mul(c, dict(_trace(w, n))))
    return out


def _structures(name, count):
    """The first count structures of a workload, each with its item at
    seed 1."""
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    return list(zip(workload.structures(),
                    workloads.corpus(workload, 1, count)))


def _value(text):
    try:
        return dict(bracket_text(text).terms)
    except StuckGraph:
        return None


def _longer_words():
    """60 seeded closures of 8-16 letters on 2-4 strands, as (n, strands,
    word)."""
    rng = random.Random(45)
    words = []
    for _ in range(60):
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus", "wide")),
                 rng.randrange(strands - 1))
                for _ in range(rng.randint(8, 16))]
        words.append((rng.randint(3, 5), strands, word))
    return words


def test_hecke_trace_of_loops_kinks_and_a_wide_edge():
    for n in range(2, 7):
        loops = {0: 1}
        for strands in range(1, 4):
            loops = _mul(loops, _qint(n))
            assert hecke_bracket(n, strands, []) == loops
        assert hecke_bracket(n, 2, [("xplus", 0)]) == _qint(n)
        assert hecke_bracket(n, 2, [("xminus", 0)]) == _qint(n)
        assert hecke_bracket(n, 2, [("wide", 0)]) == _mul(_qint(n),
                                                          _qint(n - 1))


@pytest.mark.parametrize("name, count", [("links", 192),
                                         ("closed-webs", 84)])
def test_bracket_equals_the_hecke_trace_on_the_corpus(name, count):
    # every item the rewrite bracket evaluates; on links the 13 it cannot
    # evaluate have a Hecke value all the same
    stuck = 0
    for structure, item in _structures(name, count):
        value = _value(item.text)
        stuck += value is None
        assert value in (None, hecke_bracket(*structure)), item.text
    assert stuck == (13 if name == "links" else 0)


# sha256 of the lines of the longer words, each the bracket_text value or
# the StuckGraph message
LONGER_WORDS_SHA256 = ("449b1536c21611b8f049f540b4a9cf0762c0ceef6206d2b8e0ded0"
                       "8d707200d3")


def test_bracket_equals_the_hecke_trace_on_longer_words():
    lines = []
    stuck = 0
    for n, strands, word in _longer_words():
        text = _closure_text(n, strands, word)
        try:
            value = bracket_text(text)
        except StuckGraph as e:
            lines.append(str(e))
            stuck += 1
        else:
            lines.append(str(value))
            assert dict(value.terms) == hecke_bracket(n, strands, word), word
    assert 0 < stuck < 30
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LONGER_WORDS_SHA256


def test_bracket_equals_the_hecke_trace_on_fresh_words():
    # 100 closures of 4-12 letters on 2-4 strands at n = 3..6, from a
    # generator seed that no corpus uses: wherever the rewrite bracket
    # evaluates, at n = 6 too, it equals the trace; 16 of them are stuck
    rng = random.Random(46)
    evaluated, stuck = set(), 0
    for _ in range(100):
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus", "wide")),
                 rng.randrange(strands - 1))
                for _ in range(rng.randint(4, 12))]
        n = rng.randint(3, 6)
        value = _value(_closure_text(n, strands, word))
        if value is None:
            stuck += 1
            continue
        evaluated.add(n)
        assert value == hecke_bracket(n, strands, word), (n, strands, word)
    assert stuck == 16
    assert evaluated == {3, 4, 5, 6}


# the Hecke values of the links items at seed 1 that relations (5)-(7)
# leave stuck (ROADMAP item 6's targets), by item index
STUCK_LINKS = {
    17: {3: 1, 5: 1, 7: 3, 9: 5, 11: 7, 13: 9, 15: 10, 17: 10, 19: 8, 21: 6,
         23: 3, 25: 1},
    24: {0: 1, 12: 1, 14: 2, 16: 3, 18: 4, 20: 4, 22: 4, 24: 3, 26: 2,
         28: 1},
    25: {-19: -1, -17: -1, -15: -1, -11: 1, -9: 2, -7: 2, -5: 1, -3: 1},
    26: {-2: 1, 0: 2, 2: 4, 4: 5, 6: 6, 8: 5, 10: 3, 12: 1},
    35: {-25: 1, -23: 3, -21: 6, -19: 8, -17: 10, -15: 10, -13: 9, -11: 7,
         -9: 5, -7: 3, -5: 1, -3: 1},
    38: {-12: 1, -10: 3, -8: 5, -6: 6, -4: 5, -2: 4, 0: 2, 2: 1},
    53: {-6: 1, -4: 3, -2: 6, 0: 7, 2: 6, 4: 3, 6: 1},
    93: {-6: 1, -4: 3, -2: 7, 0: 14, 2: 22, 4: 31, 6: 38, 8: 40, 10: 37,
         12: 29, 14: 19, 16: 10, 18: 4, 20: 1},
    95: {4: 1, 6: 1, 8: 3, 10: 5, 12: 8, 14: 11, 16: 14, 18: 16, 20: 17,
         22: 16, 24: 13, 26: 10, 28: 6, 30: 3, 32: 1},
    110: {-3: 1, -1: 1, 1: 1, 3: 1},
    134: {-20: 1, -18: 2, -16: 3, -14: 3, -12: 3, -10: 4, -8: 4, -6: 4,
          -4: 2, -2: 1},
    161: {-16: 1, -14: 1, -12: 2, -10: 3, -8: 3, -6: 4, -4: 3, -2: 4, 0: 3,
          2: 2, 4: 1},
    182: {4: 1, 6: 1, 8: 2, 10: 1, 12: 1, 14: 1, 16: 1, 18: 1},
}


def test_stuck_links_items_have_pinned_hecke_values():
    stuck = {}
    for structure, item in _structures("links", 192):
        if _value(item.text) is None:
            stuck[item.index] = hecke_bracket(*structure)
    assert stuck == STUCK_LINKS
    # the closure of (W1 W0)^3 on three strands, the smallest stuck web
    assert hecke_bracket(4, 3, [("wide", 1), ("wide", 0)] * 3) == {
        -9: 1, -7: 8, -5: 24, -3: 45, -1: 60, 1: 60, 3: 45, 5: 24, 7: 8,
        9: 1}


# the closures of (W1 W0)^k on three strands, Wi a wide edge between
# strands i and i + 1 (ROADMAP items 6 and 15): their Hecke values by
# (k, n); relations (5)-(7) evaluate k = 1 and 2 and stick at k = 3
W1W0_POWERS = {
    (1, 3): {-4: 1, -2: 3, 0: 4, 2: 3, 4: 1},
    (1, 4): {-7: 1, -5: 3, -3: 6, -1: 8, 1: 8, 3: 6, 5: 3, 7: 1},
    (1, 5): {-10: 1, -8: 3, -6: 6, -4: 10, -2: 13, 0: 14, 2: 13, 4: 10,
             6: 6, 8: 3, 10: 1},
    (2, 3): {-4: 2, -2: 6, 0: 8, 2: 6, 4: 2},
    (2, 4): {-7: 2, -5: 7, -3: 14, -1: 19, 1: 19, 3: 14, 5: 7, 7: 2},
    (2, 5): {-10: 2, -8: 7, -6: 15, -4: 25, -2: 33, 0: 36, 2: 33, 4: 25,
             6: 15, 8: 7, 10: 2},
    (3, 3): {-6: 1, -4: 7, -2: 17, 0: 22, 2: 17, 4: 7, 6: 1},
    (3, 4): {-9: 1, -7: 8, -5: 24, -3: 45, -1: 60, 1: 60, 3: 45, 5: 24,
             7: 8, 9: 1},
    (3, 5): {-12: 1, -10: 8, -8: 25, -6: 52, -4: 84, -2: 110, 0: 120,
             2: 110, 4: 84, 6: 52, 8: 25, 10: 8, 12: 1},
}


@pytest.mark.parametrize("k, n", sorted(W1W0_POWERS))
def test_w1_w0_power_closures(k, n):
    word = [("wide", 1), ("wide", 0)] * k
    assert hecke_bracket(n, 3, word) == W1W0_POWERS[k, n]
    text = _closure_text(n, 3, word)
    if k < 3:
        assert dict(bracket_text(text).terms) == W1W0_POWERS[k, n]
    else:
        with pytest.raises(StuckGraph):
            bracket_text(text)
