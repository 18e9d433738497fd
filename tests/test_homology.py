"""Graded homology of zero-potential factorizations."""

import random

import pytest

from moycalc import reduce as reduce_module
from moycalc.diagram import glue, parse_diagram
from moycalc.homology import (HomologyResult, NonzeroPotential,
                              euler_characteristic, graded_homology)
from moycalc.laurent import LaurentPoly, quantum_integer
from moycalc.mf import KoszulMF, MFSum, koszul_new
from moycalc.moybracket import bracket_text
from moycalc.poly import Poly
from moycalc.quotient import InfiniteDimension, QuotientRing
from moycalc.reduce import auto_reduce
from test_moybracket import _respelled
from test_reduce import _load_workloads

CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"

X1 = ("x", 1)


def _loop(n, template=CIRCLE):
    # graded_homology reads what it is given: reduce first, as the CLI does
    (piece,), _ = auto_reduce(glue(parse_diagram(template % n)))
    return piece


def test_circle_homology():
    for n in (2, 3, 5):
        h = graded_homology(_loop(n))
        assert h.poincare0 == LaurentPoly()
        assert h.poincare1 == quantum_integer(n)
        assert euler_characteristic(h) == quantum_integer(n)
        assert euler_characteristic(h, signed=True) == -quantum_integer(n)
        assert euler_characteristic(h).evaluate_at_one() == n


def test_double_circle_homology():
    for n in (3, 4, 6):
        h = graded_homology(_loop(n, DCIRCLE))
        target = (quantum_integer(n) * quantum_integer(n - 1)).exact_div(
            quantum_integer(2))
        assert h.poincare1 == LaurentPoly()
        assert h.poincare0 == target
        assert euler_characteristic(h).evaluate_at_one() == n * (n - 1) // 2


def test_contractible_row_has_no_homology():
    # a unit entry makes the row contractible
    m = koszul_new(Poly.const(1), Poly(), deg_a=0, deg_b=0)
    h = graded_homology(m)
    assert euler_characteristic(h).evaluate_at_one() == 0
    assert euler_characteristic(h) == LaurentPoly()


def test_reduction_keeps_a_contractible_row():
    # K(1; 0) is contractible: reducing it must not leave its base behind
    m = koszul_new(Poly.const(1), Poly(), deg_a=0, deg_b=0)
    assert graded_homology(auto_reduce(m)[0]) == graded_homology(m)


def test_translate_swaps_parities():
    for n in (3, 4):
        m = _loop(n)
        h = graded_homology(m)
        ht = graded_homology(m.translate())
        assert ht.poincare0 == h.poincare1
        assert ht.poincare1 == h.poincare0


def test_kunneth_for_disjoint_loops():
    n = 3
    two = ("n 3\narc x1 x2\nglue x1 x2\n"
           "arc x3 x4\nglue x3 x4\n")
    h = graded_homology(auto_reduce(glue(parse_diagram(two)))[0])
    qn = quantum_integer(n)
    # parity 1 + parity 1 lands in parity 0
    assert h.poincare0 == qn * qn
    assert h.poincare1 == LaurentPoly()


def test_homology_of_sum_adds():
    m = _loop(3)
    h = graded_homology(m)
    hs = graded_homology(MFSum([m, m.shifted(2)]))
    assert hs == h + graded_homology(m.shifted(2))
    assert hs.poincare1 == h.poincare1 + h.poincare1 * LaurentPoly({2: 1})


def test_nonzero_potential_rejected():
    with pytest.raises(NonzeroPotential):
        graded_homology(koszul_new(Poly.var(X1, 3), Poly.var(X1)))


def test_row_free_piece_over_an_infinite_base_is_refused():
    # Q[x1, x2]/(x1^2 - x2^2) is infinite-dimensional: x2 leads no rule
    base = QuotientRing().with_rule(X1, 2, Poly.var(("x", 2), 2))
    with pytest.raises(InfiniteDimension, match="^no bounding rule for x2$"):
        graded_homology(KoszulMF((), base))


@pytest.mark.parametrize("seed", [1, 2])
def test_closed_webs_homology_law(seed, monkeypatch):
    # every reduced closed web has its bracket as homology, all in the
    # parity of its strand count, and none raises InfiniteDimension;
    # homology reads the pieces it is given and never searches again.
    # The paper's own pieces spell each web again: where a spelling
    # reduces, its homology is the wide spelling's; the search stops at its
    # budget on 3 items spelled with vin/vout and on 10 spelled with
    # dlines, and exactly there homology raises InfiniteDimension
    workloads = _load_workloads()
    items = workloads.corpus(workloads.WORKLOADS["closed-webs"], seed, 84)
    reduced = [[auto_reduce(glue(parse_diagram(text)))
                for text in _respelled(item.text)] for item in items]

    def no_search(*args):
        raise AssertionError("graded_homology searched")

    monkeypatch.setattr(reduce_module._Search, "reduce", no_search)
    infinite = [0, 0, 0]
    for item, spellings in zip(items, reduced):
        homologies = []
        for spelling, (pieces, trace) in enumerate(spellings):
            try:
                homologies.append(graded_homology(pieces))
            except InfiniteDimension:
                infinite[spelling] += 1
                homologies.append(None)
            assert (homologies[-1] is None) == (trace.cutoffs > 0), item.text
        h, *trivalent = homologies
        if h is None:
            continue
        assert all(other in (None, h) for other in trivalent), item.text
        strands = sum(line.startswith("arc ")
                      for line in item.text.splitlines())
        parts = (h.poincare0, h.poincare1)
        assert parts[strands % 2] == bracket_text(item.text), item.text
        assert parts[1 - strands % 2] == LaurentPoly(), item.text
    assert infinite == [0, 3, 10]


def _line_shuffle(text, rng):
    """text with the lines below its header in a random order."""
    header, *lines = text.splitlines()
    rng.shuffle(lines)
    return "\n".join([header] + lines) + "\n"


def test_line_order_keeps_the_closed_web_homology():
    # ROADMAP item 23: three line shuffles of each closed-webs item at seed
    # 1; where both spellings reduce, the homology is equal.  The search
    # budget still stops short on 2 of the 252 shuffles, and homology
    # raises InfiniteDimension on exactly those
    workloads = _load_workloads()
    rng = random.Random(5)
    failing = []
    for item in workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, 84):
        expected = graded_homology(
            auto_reduce(glue(parse_diagram(item.text)))[0])
        for _ in range(3):
            text = _line_shuffle(item.text, rng)
            reduced, trace = auto_reduce(glue(parse_diagram(text)))
            try:
                h = graded_homology(reduced)
            except InfiniteDimension:
                assert trace.cutoffs > 0, text
                failing.append(item.index)
                continue
            assert trace.cutoffs == 0, text
            assert h == expected, text
    assert failing == [62, 78]


def test_result_equality_and_str():
    h = HomologyResult(LaurentPoly({0: 1}), LaurentPoly())
    assert h == HomologyResult(LaurentPoly({0: 1}), LaurentPoly())
    assert "1" in str(h)
