"""Diagram language: parsing, validation, gluing, crossing complexes."""

import random

import pytest

from moycalc import diagram
from moycalc.diagram import (ArityMismatch, CrossingComplex, DiagramError,
                             Diagram, DuplicateUse, KindMismatch,
                             OrientationMismatch, ParseError, Piece,
                             UnsupportedN, boundary_potential,
                             build_primitive, class_variables,
                             crossing_complex, glue, parse_diagram)
from moycalc.mf import KoszulMF, KoszulRow, verify_factorization
from moycalc.poly import Poly, exact_div, sum_of_products
from moycalc.quotient import QuotientRing
from moycalc.symm import pi_poly, power_sum_at
from test_acceptance import _random_diagram
from test_reduce import _load_workloads


def test_parse_basic_circle():
    d = parse_diagram("# a loop\nn 4\narc x1 x2\nglue x1 x2\n")
    assert d.n == 4
    assert len(d.pieces) == 1
    assert not d.boundary()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_diagram("n 3\narc x1 y9\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_diagram("arc x1 x2\n")  # n must come first
    with pytest.raises(ParseError):
        parse_diagram("n 3\nn 4\n")
    with pytest.raises(ParseError):
        parse_diagram("n 3\nfrob x1 x2\n")
    with pytest.raises(ParseError):
        parse_diagram("")


def test_n_statement_and_glue_messages():
    # a statement before n is refused on its own line, so n is first or
    # it is a second n
    for text, message in (
            ("arc x1 x2\nn 3\n",
             "line 1, column 1: the first statement must be 'n <int>'"),
            ("n 3\narc x1 x2\n  n 4\n",
             "line 3, column 3: duplicate n statement"),
            ("n 3\narc x1 x2\nglue x1\n",
             "line 3, column 1: usage: glue <p> <q>"),
            ("n 3\narc x1 x2\nglue x1 x2 x3\n",
             "line 3, column 1: usage: glue <p> <q>")):
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        assert str(e.value) == message


def test_n_takes_ascii_digits_only():
    for digit in ("\u00b2", "\u0663"):    # superscript two, Arabic-Indic three
        with pytest.raises(ParseError, match="column 1: usage: n <int>"):
            parse_diagram("n %s\narc x1 x2\nglue x2 x1\n" % digit)


def test_parse_errors_point_at_the_token():
    # the bad token's text also occurs earlier in the line
    with pytest.raises(ParseError, match="column 12: parameter 'x1' should "
                                         "be a d-identifier"):
        parse_diagram("n 3\nvin x12 x2 x1\n")
    with pytest.raises(ParseError, match="column 8: bad identifier 'x'"):
        parse_diagram("n 3\narc x1 x\n")
    with pytest.raises(ParseError, match="column 13: bad identifier 'x'"):
        parse_diagram("n 3\n  glue  x1  x  # x\n")


def test_parse_error_messages_name_line_and_column():
    # a column counts characters, and every whitespace character that
    # str.split splits on separates two tokens
    cases = [("n 3\narc%sx1%sq2\n" % (space, space),
              "line 2, column 8: bad identifier 'q2' (expected x<int> or "
              "d<int>)")
             for space in ("\t", "\u00a0", "\u3000")]
    cases += [
        ("n 3\n  frob x1 x2\n", "line 2, column 3: unknown statement 'frob'"),
        ("n 3\n\tvin x1 x2\n", "line 2, column 2: vin takes 3 parameters"),
        ("n 3\narc x1 x2 x3\n", "line 2, column 1: arc takes 2 parameters"),
        (" n three\n", "line 1, column 2: usage: n <int>"),
        ("n 3 4\n", "line 1, column 1: usage: n <int>"),
        ("# header\n   arc x1 x2\nn 3\n",
         "line 2, column 4: the first statement must be 'n <int>'"),
        ("n 3\narc x1 x2\n glue x1 x2 x3\n",
         "line 3, column 2: usage: glue <p> <q>"),
        ("n 3\narc x1 x2\nglue x1 q2 # x1 q2\n",
         "line 3, column 9: bad identifier 'q2' (expected x<int> or "
         "d<int>)"),
        ("n 3\narc x1 q2 # a comment\n",
         "line 2, column 8: bad identifier 'q2' (expected x<int> or "
         "d<int>)"),
        ("n 3\nvin x1 x2 x3 # vin x1 x2 d3\n",
         "line 2, column 11: parameter 'x3' should be a d-identifier"),
        ("n 3\narc x1 x2 x3# x4\n",
         "line 2, column 1: arc takes 2 parameters"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as e:
            parse_diagram(text)
        assert str(e.value) == message, text


def test_only_newlines_end_a_line():
    # \n, \r\n and \r end a line, as a universal-newline read counts them;
    # a form feed, a vertical tab, \x1c-\x1e, \x85, U+2028 and U+2029 are
    # whitespace inside one
    with pytest.raises(ParseError) as e:
        parse_diagram("n 3\n\f\narc x1 q2\n")
    assert str(e.value) == ("line 3, column 8: bad identifier 'q2' "
                            "(expected x<int> or d<int>)")
    for space in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                  "\u2029"):
        d = parse_diagram("n 3\narc x1%sx2\nglue x2 x1\n" % space)
        assert [p.params for p in d.pieces] == [("x1", "x2")]
        with pytest.raises(ParseError) as e:
            parse_diagram("n 3%s\r\narc x1 x2\rarc x3%sq4\n" % (space, space))
        assert str(e.value).startswith("line 3, column 8: bad identifier "
                                       "'q4'"), repr(space)


def test_semantic_errors():
    with pytest.raises(DuplicateUse):
        parse_diagram("n 3\narc x1 x1\n")
    with pytest.raises(DuplicateUse):
        parse_diagram("n 3\narc x1 x2\narc x3 x4\n"
                      "glue x2 x3\nglue x2 x4\n")
    with pytest.raises(KindMismatch):
        parse_diagram("n 3\narc x1 x2\ndline d1 d2\nglue x2 d1\n")
    with pytest.raises(OrientationMismatch):
        parse_diagram("n 3\narc x1 x2\narc x3 x4\nglue x1 x3\n")
    with pytest.raises(UnsupportedN, match="^line 2: n must be >= 2$"):
        parse_diagram("# header\nn 1\narc x1 x2\n")
    with pytest.raises(UnsupportedN):
        parse_diagram("n 2\ndline d1 d2\n")
    with pytest.raises(ParseError):
        parse_diagram("n 3\nvin x1 x2\n")  # wrong arity is a parse error


def test_semantic_errors_name_their_line():
    head = "n 3\n# pieces\narc x1 x2\n"
    with pytest.raises(DuplicateUse, match="line 4: parameter 'x2'"):
        parse_diagram(head + "arc x2 x3\n")
    with pytest.raises(DuplicateUse, match="line 6: parameter 'x2' glued"):
        parse_diagram(head + "arc x3 x4\nglue x2 x3\nglue x2 x4\n")
    with pytest.raises(KindMismatch, match="line 5: glue x2 d1"):
        parse_diagram(head + "dline d1 d2\nglue x2 d1\n")
    with pytest.raises(OrientationMismatch, match="line 5: glue x1 x3"):
        parse_diagram(head + "arc x3 x4\nglue x1 x3\n")
    with pytest.raises(DiagramError, match="line 4: glue of unknown "
                                           "parameter 'x7'"):
        parse_diagram(head + "glue x2 x7\n")
    # a name glued to itself is glued twice, before its orientation counts
    with pytest.raises(DuplicateUse, match="^line 4: parameter 'x1' glued "
                                           "more than once$"):
        parse_diagram(head + "glue x1 x1\n")


def test_diagram_constructor_checks_n_and_arity():
    # Diagram is public: its own checks hold for pieces that no parse made
    with pytest.raises(UnsupportedN, match="^n must be >= 2$"):
        Diagram(1, [Piece("arc", ("x1", "x2"), 2)])
    with pytest.raises(ArityMismatch, match="^line 3: vin takes 3 "
                                            "parameters$"):
        Diagram(3, [Piece("arc", ("x1", "x2"), 2),
                    Piece("vin", ("x3", "x4"), 3)])
    assert Diagram(3, [Piece("arc", ("x1", "x2"), 2)]).boundary() == [
        ("x1", "single", "in"), ("x2", "single", "out")]


def test_primitive_shifts_and_parities():
    n = 4
    expected = {"arc": 0, "wide": -1, "dline": 0, "vin": 0, "vout": -1}
    params = {
        "arc": (("x", 1), ("x", 2)),
        "wide": (("x", 1), ("x", 2), ("x", 3), ("x", 4)),
        "dline": ((("y", 1), ("z", 1)), (("y", 2), ("z", 2))),
        "vin": (("x", 1), ("x", 2), (("y", 3), ("z", 3))),
        "vout": ((("y", 3), ("z", 3)), ("x", 1), ("x", 2)),
    }
    for kind, shift in expected.items():
        mf = build_primitive(kind, n, params[kind])
        assert mf.shift == shift, kind
        assert mf.parity == 0, kind
        verify_factorization(mf.to_explicit())


def test_primitive_rejects_bad_input():
    with pytest.raises(DiagramError):
        build_primitive("blob", 3, ())
    with pytest.raises(ArityMismatch):
        build_primitive("arc", 3, (("x", 1),))
    with pytest.raises(UnsupportedN):
        build_primitive("wide", 2, (("x", 1), ("x", 2), ("x", 3), ("x", 4)))


def _rows_potential(mf):
    """sum_r a_r*b_r, multiplied out from the rows."""
    total = Poly()
    for row in mf.rows:
        total = total + row.a * row.b
    return total


def test_glued_potential_matches_boundary():
    # glue carries the potential by linearity; it must be what the rows
    # multiply out to, and the boundary potential
    texts = [
        "n 3\narc x1 x2\narc x3 x4\nglue x2 x3\n",
        "n 3\nvin x1 x2 d1\n",
        "n 4\nvin x1 x2 d1\nvout d2 x3 x4\nglue d1 d2\n",
        "n 3\nwide x1 x2 x3 x4\n",
        "n 4\ndline d1 d2\nvout d3 x1 x2\nglue d1 d3\n",
        "n 3\narc x1 x2\nglue x1 x2\n",
        "n 5\ndline d1 d2\nglue d1 d2\n",
        "n 3\nvin x1 x2 d1\ndline d2 d3\nvout d4 x3 x4\nglue d1 d3\n"
        "glue d2 d4\nglue x3 x1\nglue x4 x2\n",
        "n 4\nvout d1 x1 x2\nvin x3 x4 d2\nglue x1 x3\nglue d2 d1\n",
    ]
    rng = random.Random(2024)   # criterion 8's corpus
    texts += [_random_diagram(rng) for _ in range(100)]
    workloads = _load_workloads()
    texts += [item.text for item in workloads.corpus(
        workloads.WORKLOADS["closed-webs"], 1, 84)]
    for text in texts:
        d = parse_diagram(text)
        mf = glue(d)
        assert mf.potential() == _rows_potential(mf), text
        assert mf.potential() == boundary_potential(d), text


def test_template_potential_is_its_rows_multiplied_out():
    # the template takes its potential from the boundary; the rows must
    # multiply out to it for every kind and n
    cases = [("arc", 2)] + [(kind, n) for kind in diagram.ARITY
                            if kind not in diagram.CROSSINGS
                            for n in range(3, 13)]
    assert len(cases) == 51
    for kind, n in cases:
        rows, _, _, potential = diagram._template(kind, n)
        assert potential == sum_of_products((r.a, r.b) for r in rows), (
            kind, n)


def test_closed_diagram_has_zero_potential():
    d = parse_diagram("n 5\narc x1 x2\nglue x1 x2\n")
    assert glue(d).potential().is_zero()
    assert boundary_potential(d).is_zero()


def test_piece_order_does_not_change_potential():
    a = parse_diagram("n 3\nvin x1 x2 d1\nvout d2 x3 x4\n"
                      "glue d1 d2\nglue x3 x1\nglue x4 x2\n")
    b = parse_diagram("n 3\nvout d2 x3 x4\nvin x1 x2 d1\n"
                      "glue d1 d2\nglue x3 x1\nglue x4 x2\n")
    assert glue(a).potential() == glue(b).potential()


def test_class_variables_follow_encounter_order():
    d = parse_diagram("n 3\narc x1 x2\narc x3 x4\nglue x2 x3\n")
    assign = class_variables(d)
    cls = [d.class_of(name) for name in ("x1", "x2", "x4")]
    assert [assign[c] for c in cls] == [("x", 1), ("x", 2), ("x", 3)]


def test_crossing_complex_positions_and_shifts():
    n = 3
    pos = crossing_complex("+", n)
    neg = crossing_complex("-", n)
    assert isinstance(pos, CrossingComplex)
    assert pos.positions() == [-1, 0]
    assert neg.positions() == [0, 1]
    assert pos.objects[-1].shift == n - 1 and pos.objects[0].shift == n - 1
    assert neg.objects[0].shift == 1 - n and neg.objects[1].shift == -n - 1
    for c in (pos, neg):
        for obj in c.objects.values():
            assert obj.parity == 1
    # both resolutions of one crossing share the boundary potential
    for c in (pos, neg):
        pots = {str(o.potential()) for o in c.objects.values()}
        assert len(pots) == 1

    with pytest.raises(DiagramError):
        crossing_complex("?", 3)
    with pytest.raises(UnsupportedN):
        crossing_complex("+", 1)


def test_wide_difference_quotient_rows():
    # row entries recover the u,v decomposition of the potential
    mf = build_primitive("wide", 3, (("x", 1), ("x", 2), ("x", 3), ("x", 4)))
    pot = mf.potential()
    expected = Poly()
    for i, sgn in ((1, 1), (2, 1), (3, -1), (4, -1)):
        expected = expected + Poly.var(("x", i), 4) * sgn
    assert pot == expected


def _dividing_reference(kind, n, params):
    """build_primitive the long way: difference quotients by exact_div
    over distinct local variables, then the parameters substituted."""
    mapping = {}

    def x(i):
        mapping[("x", i + 1)] = Poly.var(params[i])
        return Poly.var(("x", i + 1))

    def yz(i):
        mapping[("y", i + 1)] = Poly.var(params[i][0])
        mapping[("z", i + 1)] = Poly.var(params[i][1])
        return Poly.var(("y", i + 1)), Poly.var(("z", i + 1))

    def f(s1, s2):
        return power_sum_at(n, s1, s2)

    def row(top, bottom, b, deg_b):
        a = top if bottom is None else exact_div(top - bottom, b)
        return KoszulRow(a, b, 2 * (n + 1) - deg_b, deg_b).mapped(
            lambda p: p.substitute(mapping))

    if kind == "arc":
        tail, head = x(0), x(1)
        rows = [row(pi_poly(n, ("x", 2), ("x", 1)), None, head - tail, 2)]
    elif kind == "wide":
        x1, x2, x3, x4 = (x(i) for i in range(4))
        s12, p12, s34, p34 = x1 + x2, x1 * x2, x3 + x4, x3 * x4
        rows = [row(f(s12, p12), f(s34, p12), s12 - s34, 2),
                row(f(s34, p12), f(s34, p34), p12 - p34, 4)]
    elif kind == "dline":
        (y1, z1), (y2, z2) = yz(0), yz(1)
        rows = [row(f(y1, z1), f(y2, z1), y1 - y2, 2),
                row(f(y2, z1), f(y2, z2), z1 - z2, 4)]
    elif kind == "vin":
        x1, x2 = x(0), x(1)
        y3, z3 = yz(2)
        rows = [row(f(y3, z3), f(x1 + x2, z3), y3 - x1 - x2, 2),
                row(f(x1 + x2, z3), f(x1 + x2, x1 * x2), z3 - x1 * x2, 4)]
    else:
        y1, z1 = yz(0)
        x2, x3 = x(1), x(2)
        rows = [row(f(x2 + x3, x2 * x3), f(y1, x2 * x3), x2 + x3 - y1, 2),
                row(f(y1, x2 * x3), f(y1, z1), x2 * x3 - z1, 4)]
    shift = -1 if kind in ("wide", "vout") else 0
    return KoszulMF(rows, QuotientRing(), shift, 0)


def _set_partitions(k):
    """Every way to identify k slots, as block numbers per slot."""
    if k == 0:
        return [()]
    out = []
    for head in _set_partitions(k - 1):
        for block in range(max(head, default=-1) + 2):
            out.append(head + (block,))
    return out


def _identified_params(kind):
    """Parameters for every pattern of identified slots of one kind.

    Block numbers map to indices out of order, so the renaming swaps
    local names as well as merging them.
    """
    double = diagram.DOUBLE_SLOTS[kind]
    singles = [i for i in range(diagram.ARITY[kind]) if i not in double]
    index = (3, 1, 4, 2)
    out = []
    for xs in _set_partitions(len(singles)):
        for ds in _set_partitions(len(double)):
            params = [None] * diagram.ARITY[kind]
            for slot, block in zip(singles, xs):
                params[slot] = ("x", index[block])
            for slot, block in zip(double, ds):
                params[slot] = (("y", index[block]), ("z", index[block]))
            out.append(tuple(params))
    return out


def test_primitive_matches_the_dividing_reference():
    cases = [("arc", 2)] + [(kind, n)
                            for kind in ("arc", "wide", "dline", "vin", "vout")
                            for n in range(3, 7)]
    assert len(_identified_params("wide")) == 15
    diagram._template.cache_clear()
    for cache in ("cold", "warm"):
        for kind, n in cases:
            for params in _identified_params(kind):
                want = _dividing_reference(kind, n, params)
                got = build_primitive(kind, n, params)
                assert got == want, (cache, kind, n, params)
                assert got.potential() == _rows_potential(want), (
                    cache, kind, n, params)
    assert diagram._template.cache_info().hits > 0


def test_crossing_complex_refuses_a_wrong_arity():
    for params in ((("x", 1), ("x", 2), ("x", 3)),
                   tuple(("x", k) for k in range(1, 6))):
        with pytest.raises(ArityMismatch, match="takes 4 parameters"):
            crossing_complex("+", 3, params)
