"""Graph bracket: loop values, local rewrites, crossings."""

import pytest

from moycalc.diagram import ParseError, parse_diagram
from moycalc.laurent import LaurentPoly, quantum_integer
from moycalc.moybracket import (MOYGraph, StuckGraph, all_path_values,
                                bracket, bracket_text, expand_crossings)

CIRCLE = "n %d\narc x1 x2\nglue x1 x2\n"
DCIRCLE = "n %d\ndline d1 d2\nglue d1 d2\n"
THETA = ("n %d\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n"
         "glue x3 x1\nglue x4 x2\n")


def _graph(text):
    return MOYGraph.from_diagram(parse_diagram(text))


def _double_loop_value(n):
    return (quantum_integer(n) * quantum_integer(n - 1)).exact_div(
        quantum_integer(2))


def test_loop_values():
    for n in range(2, 7):
        assert bracket(_graph(CIRCLE % n)) == quantum_integer(n)
    for n in range(3, 7):
        assert bracket(_graph(DCIRCLE % n)) == _double_loop_value(n)


def test_disjoint_loops_multiply():
    n = 4
    text = ("n 4\narc x1 x2\nglue x1 x2\n"
            "dline d1 d2\nglue d1 d2\n")
    assert bracket(_graph(text)) == \
        quantum_integer(n) * _double_loop_value(n)


def test_theta_value_and_confluence():
    for n in (3, 4, 5):
        expected = quantum_integer(2) * _double_loop_value(n)
        values = all_path_values(_graph(THETA % n))
        assert values == {expected}


def test_open_diagram_is_rejected():
    with pytest.raises(Exception):
        _graph("n 3\narc x1 x2\n")


def test_expand_crossings_coefficients():
    n = 3
    out = expand_crossings("n 3\nxplus x1 x2 x3 x4\n"
                           "glue x1 x3\nglue x2 x4\n")
    assert len(out) == 2
    coeffs = sorted(str(c) for c, _ in out)
    assert str(LaurentPoly({n - 1: 1})) in coeffs
    assert str(LaurentPoly({n: -1})) in coeffs
    texts = [t for _, t in out]
    assert any("arc x3 x1" in t and "arc x4 x2" in t for t in texts)
    assert any("wide x1 x2 x3 x4" in t for t in texts)


def test_kink_values():
    # a positive kink on a single strand, closed into a loop
    kink = ("n %d\nxplus x1 x2 x3 x4\nglue x2 x3\n"
            "glue x1 x4\n")
    for n in (3, 4):
        qn = quantum_integer(n)
        expected = (LaurentPoly({n - 1: 1}) * qn
                    - LaurentPoly({n: 1}) * qn * quantum_integer(n - 1))
        assert bracket_text(kink % n) == expected

    mink = ("n %d\nxminus x1 x2 x3 x4\nglue x2 x3\n"
            "glue x1 x4\n")
    for n in (3, 4):
        qn = quantum_integer(n)
        expected = (LaurentPoly({1 - n: 1}) * qn
                    - LaurentPoly({-n: 1}) * qn * quantum_integer(n - 1))
        assert bracket_text(mink % n) == expected


def test_reidemeister_two_invariance():
    # opposite crossings on two strands cancel: value equals two nested loops
    r2 = ("n %d\n"
          "xplus x1 x2 x3 x4\n"
          "xminus x5 x6 x7 x8\n"
          "glue x1 x7\nglue x2 x8\n"
          "glue x5 x3\nglue x6 x4\n")
    for n in (3, 4):
        assert bracket_text(r2 % n) == quantum_integer(n) ** 2


def test_stuck_graph_raises():
    # a lone double loop with a leftover single edge cannot appear from a
    # valid diagram, so synthesize a vertexless graph with a stray edge
    g = MOYGraph(3)
    g.add_edge("single", None, None)
    with pytest.raises(StuckGraph):
        bracket(g)


def test_crossing_errors_carry_source_position():
    # an arcs resolution adds a line, yet later lines keep their numbers
    with pytest.raises(ParseError) as e:
        bracket_text("n 3\nxplus x1 x2 x3 x4\nbogus x1\n")
    assert (e.value.line, e.value.column) == (3, 1)
    # an indented crossing's usage error points at the statement
    with pytest.raises(ParseError) as e:
        bracket_text("n 3\n  xminus x1 x2\n")
    assert (e.value.line, e.value.column) == (2, 3)
    # a bad parameter is located in the crossing, not in its resolution
    with pytest.raises(ParseError) as e:
        bracket_text("n 3\nxplus x1 x2 d3 x4\n")
    assert (e.value.line, e.value.column) == (2, 13)
