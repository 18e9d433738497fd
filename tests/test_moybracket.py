"""Graph bracket: loop values, local rewrites, crossings."""

import hashlib
import itertools
import random
from collections import Counter
from math import comb

import pytest

from moycalc.diagram import (CROSSINGS, DiagramError, ParseError,
                             build_primitive, glue, parse_diagram)
from moycalc.homology import euler_characteristic, graded_homology
from moycalc.laurent import LaurentPoly, quantum_integer
from moycalc import moybracket
from moycalc.moybracket import (N_MINUS_1, N_MINUS_2, PORT_NAMES, RELATIONS,
                                S0, S1, TWO, MOYGraph, StuckGraph,
                                _bracket_leaves, _build,
                                _next_rewrite, _resolution_key,
                                _square_matches, all_path_values, bracket,
                                bracket_text, expand_crossings)
from moycalc.reduce import auto_reduce

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
    out = expand_crossings(parse_diagram("n 3\nxplus x1 x2 x3 x4\n"
                                         "glue x1 x3\nglue x2 x4\n"))
    # each resolution names the crossings it resolves into arcs
    assert [(c, [p.line for p in arcs]) for c, arcs in out] == [
        (LaurentPoly({n - 1: 1}), [2]), (LaurentPoly({n: -1}), [])]


def test_expand_crossings_piece_order():
    # arcs before wide, with the first crossing outermost
    out = expand_crossings(parse_diagram(
        "n 3\nxplus x1 x2 x3 x4\narc x5 x6\nxminus x7 x8 x9 x10\n"))
    assert [c for c, _ in out] == [
        LaurentPoly({0: 1}), LaurentPoly({-1: -1}), LaurentPoly({1: -1}),
        LaurentPoly({0: 1})]
    assert [[p.line for p in arcs] for _, arcs in out] == [
        [2, 4], [2], [4], []]


def test_crossings_have_no_factorization():
    d = parse_diagram("n 3\narc x5 x6\nxminus x1 x2 x3 x4\n"
                      "glue x2 x3\nglue x1 x4\nglue x5 x6\n")
    with pytest.raises(DiagramError, match="line 3: xminus"):
        glue(d)
    with pytest.raises(DiagramError, match="line 3: xminus"):
        MOYGraph.from_diagram(d)
    with pytest.raises(DiagramError, match="no factorization"):
        build_primitive("xplus", 3, ("x1", "x2", "x3", "x4"))


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


def _closure_text(n, strands, word):
    """The closure of a braid word on strands, one arc per strand.

    A letter (kind, i) is an xplus, xminus or wide piece between strands
    i and i + 1, glued below the letters before it.
    """
    names = ("x%d" % k for k in itertools.count(1))
    lines = ["n %d" % n]
    tails, heads, glues = [], [], []
    for _ in range(strands):
        tails.append(next(names))
        heads.append(next(names))
        lines.append("arc %s %s" % (tails[-1], heads[-1]))
    for kind, i in word:
        a, b, c, d = (next(names) for _ in range(4))
        lines.append("%s %s %s %s %s" % (kind, a, b, c, d))
        glues += [(heads[i], c), (heads[i + 1], d)]
        heads[i], heads[i + 1] = a, b
    glues += zip(heads, tails)
    lines += ["glue %s %s" % g for g in glues]
    return "\n".join(lines) + "\n"


def _written_out_sum(text):
    """The skein sum with every resolution written out as source text.

    Each crossing line becomes `arc c a` + `arc d b` or `wide a b c d`,
    and each resolution is parsed and evaluated on its own.
    """
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    crossings = [k for k, line in enumerate(lines)
                 if line.split()[0] in ("xplus", "xminus")]
    total = LaurentPoly()
    for choice in itertools.product(("arcs", "wide"), repeat=len(crossings)):
        coeff = LaurentPoly({0: 1})
        out = list(lines)
        for k, how in zip(crossings, choice):
            kind, a, b, c, d = lines[k].split()
            sign = 1 if kind == "xplus" else -1
            if how == "arcs":
                coeff = coeff * LaurentPoly({sign * (n - 1): 1})
                out[k] = "arc %s %s\narc %s %s" % (c, a, d, b)
            else:
                coeff = coeff * LaurentPoly({sign * n: -1})
                out[k] = "wide %s %s %s %s" % (a, b, c, d)
        total = total + coeff * bracket(_graph("\n".join(out) + "\n"))
    return total


def test_bracket_text_matches_resolutions_written_out():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 5)
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus")), rng.randrange(strands - 1))
                for _ in range(rng.randint(1, 5))]
        text = _closure_text(n, strands, word)
        try:
            expected = _written_out_sum(text)
        except StuckGraph:
            with pytest.raises(StuckGraph):
                bracket_text(text)
        else:
            assert bracket_text(text) == expected


def test_reidemeister_three_invariance():
    for n in (3, 4):
        for kind in ("xplus", "xminus"):
            left = [(kind, 0), (kind, 1), (kind, 0)]
            right = [(kind, 1), (kind, 0), (kind, 1)]
            assert (bracket_text(_closure_text(n, 3, left))
                    == bracket_text(_closure_text(n, 3, right)))


def test_figure_eight_is_symmetric_in_q():
    # the closure of (s1 s2^-1)^2 is amphichiral with writhe 0
    word = [("xplus", 0), ("xminus", 1)] * 2
    for n in (3, 4):
        value = bracket_text(_closure_text(n, 3, word))
        assert value == LaurentPoly({-e: c for e, c in value.terms.items()})
    assert value == LaurentPoly({-11: 1, -9: 1, -7: 1, -1: -1, 1: -1, 7: 1,
                                 9: 1, 11: 1})


# the closure of (W1 W0)^3 on three strands, Wi a wide edge between strands
# i and i+1: the smallest web on which no digon, bigon or square applies
STUCK_WEB = """n 4
arc x1 x2
arc x3 x4
arc x5 x6
wide x7 x8 x9 x10
wide x11 x12 x13 x14
wide x15 x16 x17 x18
wide x19 x20 x21 x22
wide x23 x24 x25 x26
wide x27 x28 x29 x30
glue x4 x9
glue x6 x10
glue x2 x13
glue x7 x14
glue x12 x17
glue x8 x18
glue x11 x21
glue x15 x22
glue x20 x25
glue x16 x26
glue x19 x29
glue x23 x30
glue x27 x1
glue x28 x3
glue x24 x5
"""

# the closure of W1 W0 on three strands, where relation (7) applies
SQUARE_WEB = """n %d
arc x1 x2
arc x3 x4
arc x5 x6
wide x7 x8 x9 x10
wide x11 x12 x13 x14
glue x4 x9
glue x6 x10
glue x2 x13
glue x7 x14
glue x11 x1
glue x12 x3
glue x8 x5
"""


def test_stuck_web_raises():
    with pytest.raises(StuckGraph) as e:
        bracket(_graph(STUCK_WEB))
    message = str(e.value)
    assert message.count("\nvertex ") == 12
    assert "edge: double (0, 'd') -> (1, 'd')" in message


def test_square_relation_matches_euler_characteristic():
    # all_path_values rewrites the square first along some paths; every
    # path must reach the euler characteristic of the homology
    chis = {}
    for n in (3, 4):
        graph = _graph(SQUARE_WEB % n)
        assert next(_square_matches(graph), None)
        reduced, _ = auto_reduce(glue(parse_diagram(SQUARE_WEB % n)))
        chis[n] = euler_characteristic(graded_homology(reduced))
        assert all_path_values(graph) == {chis[n]}
    assert chis[4] == LaurentPoly({-7: 1, -5: 3, -3: 6, -1: 8, 1: 8, 3: 6,
                                   5: 3, 7: 1})


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


def test_bracket_leaves_its_graph_unchanged():
    # bracket splices a private copy in place; the caller's graph must not
    # see it, whichever path the rewrites take
    for text in (SQUARE_WEB % 4, THETA % 4):
        graph = _graph(text)

        def state():
            return (str(graph), sorted(graph.vertices), dict(graph.pred),
                    graph.loops_single, graph.loops_double)

        before = state()
        value = bracket(graph)
        assert state() == before
        for name, (matcher, _) in RELATIONS.items():
            for match in matcher(graph):
                assert bracket(graph, (name, match)) == value
                assert state() == before
        assert all_path_values(graph) == {value}
        assert state() == before


def _word(spec):
    """A braid word from letters like "+0" (xplus) and "-1" (xminus)."""
    return [("xplus" if letter[0] == "+" else "xminus", int(letter[1:]))
            for letter in spec.split()]


# bracket_text of braid closures drawn at random, as computed before the
# walk counted its leaves: (n, strands, word, value), None when stuck
PINNED = [
    (5, 2, "+0 -0 +0 +0", "1 + q^2 + 2*q^4 + 3*q^6 + 4*q^8 + 4*q^10 + "
     "4*q^12 + 3*q^14 + 2*q^16 + q^18"),
    (4, 3, "+1 -0 +0 +0 -1 +0", "q^-3 + q^-1 + q + q^3"),
    (4, 2, "-0 -0 +0 +0",
     "q^-6 + 2*q^-4 + 3*q^-2 + 4 + 3*q^2 + 2*q^4 + q^6"),
    (3, 3, "+0 -0 -0 -1 +1", "q^-4 + 2*q^-2 + 3 + 2*q^2 + q^4"),
    (5, 3, "-0 +0 +0 -1 -0 -0", "q^-4 + q^-2 + 1 + q^2 + q^4"),
    (4, 3, "-1 +1 -1 -0 +0 -1 +1",
     "q^-6 + 2*q^-4 + 3*q^-2 + 4 + 3*q^2 + 2*q^4 + q^6"),
    (3, 3, "+0 -1 +0 +0 -1 -0 +1", None),
    (5, 2, "+0 -0 +0 -0 -0 +0 -0", "q^-4 + q^-2 + 1 + q^2 + q^4"),
    (5, 4, "+2 -0 +0 -2 -0 -2", "q^-8 + 2*q^-6 + 3*q^-4 + 4*q^-2 + 5 + "
     "4*q^2 + 3*q^4 + 2*q^6 + q^8"),
    (3, 4, "+2 -2 -0 -0 -1 -0 +0", "q^-12 + 3*q^-10 + 5*q^-8 + 6*q^-6 + "
     "5*q^-4 + 4*q^-2 + 2 + q^2"),
]

PINNED_STUCK = (
    "no relation applies; residual graph:\nn=3\nvertex 0: vin\n"
    "vertex 1: vout\nvertex 2: vin\nvertex 3: vout\nvertex 6: vin\n"
    "vertex 7: vout\nvertex 8: vin\nvertex 9: vout\nvertex 10: vin\n"
    "vertex 11: vout\nvertex 12: vin\nvertex 13: vout\n"
    "edge: double (0, 'd') -> (1, 'd')\n"
    "edge: single (1, 's0') -> (6, 's0')\n"
    "edge: single (1, 's1') -> (2, 's0')\n"
    "edge: double (2, 'd') -> (3, 'd')\n"
    "edge: single (3, 's0') -> (6, 's1')\n"
    "edge: single (3, 's1') -> (8, 's1')\n"
    "edge: double (6, 'd') -> (7, 'd')\n"
    "edge: single (7, 's0') -> (10, 's0')\n"
    "edge: single (7, 's1') -> (8, 's0')\n"
    "edge: double (8, 'd') -> (9, 'd')\n"
    "edge: single (9, 's0') -> (10, 's1')\n"
    "edge: single (9, 's1') -> (12, 's1')\n"
    "edge: double (10, 'd') -> (11, 'd')\n"
    "edge: single (11, 's0') -> (0, 's0')\n"
    "edge: single (11, 's1') -> (12, 's0')\n"
    "edge: double (12, 'd') -> (13, 'd')\n"
    "edge: single (13, 's0') -> (0, 's1')\n"
    "edge: single (13, 's1') -> (2, 's1')")


def test_pinned_braid_closure_values():
    for n, strands, spec, value in PINNED:
        text = _closure_text(n, strands, _word(spec))
        if value is None:
            with pytest.raises(StuckGraph) as e:
                bracket_text(text)
            assert str(e.value) == PINNED_STUCK
        else:
            assert str(bracket_text(text)) == value


_FACTORS = {None: lambda n: LaurentPoly({0: 1}),
            TWO: lambda n: quantum_integer(2),
            N_MINUS_1: lambda n: quantum_integer(n - 1),
            N_MINUS_2: lambda n: quantum_integer(n - 2)}


def _direct(graph, first_match=None):
    """The bracket multiplied out along every path: each term of a rewrite
    is spliced on a copy and its factor multiplies the copy's value."""
    n = graph.n
    if not graph.vertices:
        return (quantum_integer(n) ** graph.loops_single
                * _double_loop_value(n) ** graph.loops_double)
    if first_match is None:
        first_match = next(((name, match)
                            for name, (matcher, _) in RELATIONS.items()
                            for match in matcher(graph)), None)
        if first_match is None:
            raise StuckGraph(graph)
    name, match = first_match
    vids, terms = RELATIONS[name][1](graph, match)
    total = LaurentPoly()
    for slot, stitches in terms:
        g = graph.copy()
        g.splice(vids, stitches)
        total = total + _FACTORS[slot](n) * _direct(g)
    return total


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except StuckGraph as e:
        return "stuck: %s" % e


def test_bracket_matches_a_direct_evaluation():
    rng = random.Random(40)
    texts = [SQUARE_WEB % 3, SQUARE_WEB % 4, THETA % 3, THETA % 5]
    for _ in range(40):
        n = rng.randint(3, 5)
        strands = rng.randint(2, 4)
        word = [("wide", rng.randrange(strands - 1))
                for _ in range(rng.randint(2, 8))]
        texts.append(_closure_text(n, strands, word))
    stuck = 0
    for text in texts:
        graph = _graph(text)
        assert _outcome(bracket, graph) == _outcome(_direct, graph)
        paths = {}
        for name, (matcher, _) in RELATIONS.items():
            for match in matcher(graph):
                value = _outcome(bracket, graph, (name, match))
                assert value == _outcome(_direct, graph, (name, match))
                paths[name, match] = value
        if any(isinstance(v, str) for v in paths.values()):
            stuck += 1
            with pytest.raises(StuckGraph):
                all_path_values(graph)
        else:
            assert all_path_values(graph) == set(paths.values())
    assert stuck == 1


@pytest.fixture
def counted_copies(monkeypatch):
    """The graphs MOYGraph.copy is called on, and the square matches
    applied: a walk copies its graph once for the first term of each."""
    copies, squares = [], []
    copy = MOYGraph.copy
    matcher, apply = RELATIONS["square"]

    def counted_copy(graph):
        copies.append(graph)
        return copy(graph)

    def counted_apply(graph, match):
        squares.append(match)
        return apply(graph, match)

    monkeypatch.setattr(MOYGraph, "copy", counted_copy)
    monkeypatch.setitem(RELATIONS, "square", (matcher, counted_apply))
    return copies, squares


def _partial_states(diagram, depth):
    """The graph of every partial state with the first depth crossings
    resolved, each spliced on its own copy of the built graph, in the
    order of its choices (arcs before wide, the first crossing outermost),
    and the vin/vout pair of each crossing."""
    graph, pairs, _ = _build(diagram)
    states = []
    for choice in itertools.product((True, False), repeat=depth):
        arcs = [pair for pair, a in zip(pairs, choice) if a]
        g = graph.copy()
        g.splice([v for pair in arcs for v in pair],
                 [(4 * win + slot, 4 * wout + slot)
                  for win, wout in arcs for slot in (S0, S1)])
        states.append(g)
    return states, pairs


def _contract_digons_below(graph, below):
    """Splice, by RELATIONS["digon"], every digon of graph whose two
    vertices lie below the vid below."""
    matcher, apply = RELATIONS["digon"]
    for match in [m for m in matcher(graph) if max(m) < below]:
        vids, [(_, stitches)] = apply(graph, match)
        graph.splice(vids, stitches)


def _contracted_states(diagram, depth):
    """_partial_states, each with its digons below the vin of the crossing
    at depth spliced, as the level at depth is held before that crossing
    is resolved (no digon is spliced before the first crossing is
    resolved, nor after the last)."""
    graphs, pairs = _partial_states(diagram, depth)
    if 0 < depth < len(pairs):
        for g in graphs:
            _contract_digons_below(g, pairs[depth][0])
    return graphs, pairs


def _state_keys(diagram, depth):
    """The keys of the partial states with the first depth crossings
    resolved, before their digons are spliced: the arcs and then the wide
    child of every state of _contracted_states(diagram, depth - 1), in
    its order."""
    if not depth:
        return [_resolution_key(_build(diagram)[0])]
    graphs, pairs = _contracted_states(diagram, depth - 1)
    win, wout = pairs[depth - 1]
    keys = []
    for g in graphs:
        arcs = g.copy()
        arcs.splice((win, wout), [(4 * win + slot, 4 * wout + slot)
                                  for slot in (S0, S1)])
        keys += [_resolution_key(arcs), _resolution_key(g)]
    return keys


def _level_sizes(diagram, crossings):
    """The number of distinct states on the level that each crossing is
    resolved from: the keys of _contracted_states at its depth."""
    return [len({_resolution_key(g)
                 for g in _contracted_states(diagram, depth)[0]})
            for depth in range(crossings)]


def test_bracket_text_copies_once_per_partial_state(counted_copies,
                                                    monkeypatch):
    # one copy per state of the level above each crossing, for its arcs
    # child (a wide child takes its parent's own graph, and digons are
    # spliced in place), and one more for the first term of each square
    # walked; each such state adds its skein starts once into each child
    copies, squares = counted_copies
    adds = []
    add_starts = moybracket._add_starts

    def counted_add_starts(*args):
        adds.append(args)
        return add_starts(*args)

    monkeypatch.setattr(moybracket, "_add_starts", counted_add_starts)
    for n, strands, spec, value in PINNED:
        if value is None:
            continue
        text = _closure_text(n, strands, _word(spec))
        c = len(_word(spec))
        states = sum(_level_sizes(parse_diagram(text), c))
        before = len(squares)
        copies.clear()
        adds.clear()
        bracket_text(text)
        assert len(copies) == states + len(squares) - before
        assert len(adds) == 2 * states
        assert states < 2 ** c - 1
    assert squares


def test_sigma_power_copies_one_graph_per_state(counted_copies):
    # after the first crossing of the closure of s1^c every level holds two
    # states, no wide edge or one: the digons of the wide edges below the
    # next crossing merge every state that has one, so its c levels copy
    # 2c - 1 graphs, not c(c+1)/2
    copies, squares = counted_copies
    for c in range(1, 8):
        copies.clear()
        squares.clear()
        text = _closure_text(4, 2, [("xplus", 0)] * c)
        bracket_text(text)
        assert len(copies) - len(squares) == \
            sum(_level_sizes(parse_diagram(text), c)) == 2 * c - 1


def _permuted_closures():
    """Closures of one crossing letter, alone or beside one wide letter,
    on 2-4 strands, with the top of strand i glued to the bottom of
    strand perm[i] for every permutation perm."""
    texts = []
    for strands in (2, 3, 4):
        rows = range(strands - 1)
        words = [[(kind, i)] for kind in CROSSINGS for i in rows]
        words += [[("xplus", i), ("wide", j)] for i in rows for j in rows]
        words += [[("wide", j), ("xminus", i)] for i in rows for j in rows]
        for word in words:
            body = _closure_text(4, strands, word).splitlines()
            closing = [line.split() for line in body[-strands:]]
            for perm in itertools.permutations(range(strands)):
                glues = ["glue %s %s" % (closing[i][1], closing[j][2])
                         for i, j in enumerate(perm)]
                texts.append("\n".join(body[:-strands] + glues) + "\n")
    return texts


def test_permuted_closures_count_the_leaves_of_every_resolution():
    # gluing the strands by every permutation sends the single edges out of
    # a crossing's vout back into its own vin in every arrangement (s0 to
    # s0, s1 to s1, crossed, one-sided), which the arcs splice chains
    # through or closes into loops
    for text in _permuted_closures():
        d = parse_diagram(text)
        assert _outcome(_bracket_leaves, d) == \
            _outcome(_every_resolution_walked, d), text


def _count_leaves(graph, leaves, sign, exps):
    """Rewrite graph in place down to free loops, adding sign to leaves[t]
    for the exponent tuple t of every leaf: a walk written apart from
    moybracket._walk, on the same matchers and splices.

    exps holds the exponents (k, a, b, c) reached so far and is updated in
    place.  Each term but the last of a sum is walked, in full, on a copy.
    """
    while graph.vertices:
        name, match = _next_rewrite(graph)
        vids, terms = RELATIONS[name][1](graph, match)
        for slot, stitches in terms[:-1]:
            g = graph.copy()
            g.splice(vids, stitches)
            branch = list(exps)
            if slot:
                branch[slot] += 1
            _count_leaves(g, leaves, sign, branch)
        slot, stitches = terms[-1]
        graph.splice(vids, stitches)
        if slot:
            exps[slot] += 1
    leaves[(*exps, graph.loops_single, graph.loops_double)] += sign


def _every_resolution_walked(diagram):
    """The leaves of every resolution, each spliced on its own copy of the
    built graph and walked from its skein start: no tree, no sharing."""
    graph, pairs, _ = _build(diagram)
    pair_of = dict(zip((p for p in diagram.pieces if p.kind in CROSSINGS),
                       pairs))
    leaves = Counter()
    for coeff, arcs in expand_crossings(diagram):
        (k, sign), = coeff.terms.items()
        g = graph.copy()
        g.splice([v for p in arcs for v in pair_of[p]],
                 [(4 * pair_of[p][0] + slot, 4 * pair_of[p][1] + slot)
                  for p in arcs for slot in (S0, S1)])
        _count_leaves(g, leaves, sign, [k, 0, 0, 0])
    return leaves


def test_shared_walks_count_the_leaves_of_every_resolution():
    texts = [_closure_text(n, strands, _word(spec))
             for n, strands, spec, _ in PINNED]
    rng = random.Random(18)
    for _ in range(40):
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus", "wide")),
                 rng.randrange(strands - 1))
                for _ in range(rng.randint(2, 7))]
        texts.append(_closure_text(rng.randint(3, 5), strands, word))
    stuck = 0
    for text in texts:
        d = parse_diagram(text)
        expected = _outcome(_every_resolution_walked, d)
        assert _outcome(_bracket_leaves, d) == expected
        stuck += isinstance(expected, str)
    assert stuck >= 2


def _load_workloads():
    # test_reduce imports this module, so its loader is imported late
    from test_reduce import _load_workloads
    return _load_workloads()


@pytest.mark.parametrize("seed", [1, 2])
def test_shared_walks_on_the_links_corpus(seed):
    # the links benchmark's first 192 items: the level merge, which walks
    # each distinct resolution once, counts the leaves of every resolution
    # walked on its own, and a stuck item names the same graph in the same
    # message
    workloads = _load_workloads()
    stuck = 0
    for item in workloads.corpus(workloads.WORKLOADS["links"], seed, 192):
        d = parse_diagram(item.text)
        expected = _outcome(_every_resolution_walked, d)
        assert _outcome(_bracket_leaves, d) == expected, item.text
        stuck += isinstance(expected, str)
    assert stuck == 13


# sha256 of the lines of the links benchmark's first 192 items, each the
# bracket_text value or the StuckGraph message; seed 2 respells the names
# of seed 1's items, and both give these lines
LINKS_SHA256 = ("b0ebd19d000f160f9bbbe87457000b851ce50370945691eb147416441a5b"
                "dbc1")


@pytest.mark.parametrize("seed", [1, 2])
def test_links_corpus_outputs_are_pinned(seed):
    workloads = _load_workloads()
    lines = []
    for item in workloads.corpus(workloads.WORKLOADS["links"], seed, 192):
        try:
            lines.append(str(bracket_text(item.text)))
        except StuckGraph as e:
            lines.append(str(e))
    assert sum(line.startswith("no relation") for line in lines) == 13
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LINKS_SHA256


def test_shared_walks_on_trivalent_closed_webs():
    # the vin/vout and dline spellings of 40 closed-webs items: one
    # resolution each, whose walk opens each square into a two-term sum
    workloads = _load_workloads()
    for item in workloads.corpus(workloads.WORKLOADS["closed-webs"], 1, 40):
        header, (_, *trivalent) = _spellings(item.text)
        for pieces, glues in trivalent:
            d = parse_diagram("\n".join([header] + pieces + glues) + "\n")
            expected = _outcome(_every_resolution_walked, d)
            assert _outcome(_bracket_leaves, d) == expected, item.text


def _two_power(e):
    """[2]^e from the binomial theorem."""
    return LaurentPoly({e - 2 * j: comb(e, j) for j in range(e + 1)})


def test_long_wide_chains_do_not_recurse_per_rewrite():
    # the closure of W0^k on two strands is [2]^(k-1) [n][n-1]; the walk
    # loops along its digons, so 1500 wide edges raise no RecursionError,
    # nor do they below two positive crossings, whose skein sum multiplies
    # the value by (q^(n-1) - q^n [2])^2 = q^(2n+2)
    for n in (3, 4, 5):
        for k in (1, 2, 5, 40):
            value = bracket_text(_closure_text(n, 2, [("wide", 0)] * k))
            assert value == (_two_power(k - 1) * quantum_integer(n)
                             * quantum_integer(n - 1))
    chain = [("wide", 0)] * 1500
    expected = _two_power(1499) * quantum_integer(3) * quantum_integer(2)
    moybracket._product.cache_clear()
    assert bracket_text(_closure_text(3, 2, chain)) == expected
    # [2]^1499 is raised by squaring, so its factor [2] caches only the
    # powers that makes, about log2 1499 of them
    powers = moybracket._product(3, (1, 0, 0, 0, 0))._powers
    assert len(powers) <= 2 * (1499).bit_length()
    twisted = _closure_text(3, 2, [("xplus", 0)] * 2 + chain)
    assert bracket_text(twisted) == LaurentPoly({8: 1}) * expected


def test_split_closures_multiply_without_blowing_up():
    # the closure of (s1^2 s3^-2)^k on four strands is two split links, so
    # relation (3) makes it the product of the closures of s1^2k and
    # s1^-2k on two strands; only the digons spliced at each level keep
    # the levels of k = 8 (32 crossings) small enough to finish in time
    word = [("xplus", 0)] * 2 + [("xminus", 2)] * 2
    for k in range(1, 9):
        for n in (3, 4, 5):
            left = bracket_text(_closure_text(n, 2, [("xplus", 0)] * 2 * k))
            right = bracket_text(_closure_text(n, 2,
                                               [("xminus", 0)] * 2 * k))
            assert bracket_text(_closure_text(n, 4, word * k)) == \
                left * right


@pytest.fixture
def counted_walks(monkeypatch):
    """The keys of the graphs moybracket._walk is called on from outside
    itself, one per distinct resolution; the walk's own calls on the
    terms of its sums are not counted."""
    walks = []
    depth = [0]
    walk = moybracket._walk

    def counted(graph, *args, **kwargs):
        if not depth[0]:
            walks.append(_resolution_key(graph))
        depth[0] += 1
        try:
            return walk(graph, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(moybracket, "_walk", counted)
    return walks


def test_sigma_power_walks_one_graph_per_arcs_count(counted_walks):
    # a resolution of the closure of s1^c is, up to vertex ids, fixed by how
    # many of its crossings are arcs; the wide edges of the crossings before
    # the last form digons that merge into one, so the graphs walked have
    # no, one or two wide edges
    walks = counted_walks
    for c in range(1, 7):
        walks.clear()
        bracket_text(_closure_text(4, 2, [("xplus", 0)] * c))
        assert len(walks) == len(set(walks)) == min(c + 1, 3)


def test_walks_follow_the_distinct_resolution_keys(counted_walks):
    # one walk per distinct key of the resolutions spliced each on its own
    # copy, with the digons below the last crossing's vin spliced, in the
    # order of their first appearance; a stuck diagram stops at the walk
    # that raises
    walks = counted_walks
    words = [(n, strands, _word(spec)) for n, strands, spec, _ in PINNED]
    rng = random.Random(19)
    for _ in range(40):
        strands = rng.randint(2, 4)
        words.append((rng.randint(3, 5), strands,
                      [(rng.choice(("xplus", "xminus", "wide")),
                        rng.randrange(strands - 1))
                       for _ in range(rng.randint(1, 7))]))
    stuck = 0
    for n, strands, word in words:
        d = parse_diagram(_closure_text(n, strands, word))
        crossings = sum(kind in CROSSINGS for kind, _ in word)
        distinct = list(dict.fromkeys(_state_keys(d, crossings)))
        walks.clear()
        try:
            _bracket_leaves(d)
        except StuckGraph:
            stuck += 1
            assert walks == distinct[:len(walks)]
        else:
            assert walks == distinct
    assert stuck >= 1


def test_ports_sort_as_vid_name_pairs():
    # a port 4 * vid + slot sorts as the pair (vid, PORT_NAMES[slot]), for
    # negative vids (the wires of _build) too, and decodes back to it
    pairs = [(vid, name) for vid in range(-9, 10) for name in PORT_NAMES]
    ports = [4 * vid + PORT_NAMES.index(name) for vid, name in pairs]
    random.Random(41).shuffle(ports)
    assert [(port >> 2, PORT_NAMES[port & 3])
            for port in sorted(ports)] == sorted(pairs)


def _relabeled(graph, vid):
    """graph with every vertex id v renamed vid(v)."""
    g = MOYGraph(graph.n)
    g.vertices = {vid(v): kind for v, kind in graph.vertices.items()}
    g.succ = {4 * vid(src >> 2) + (src & 3): 4 * vid(dst >> 2) + (dst & 3)
              for src, dst in graph.succ.items()}
    g.pred = {dst: src for src, dst in g.succ.items()}
    g.loops_single = graph.loops_single
    g.loops_double = graph.loops_double
    return g


def test_resolution_key_is_order_relative():
    # on the theta the swapped singles go to two ports of one vertex
    for text in (SQUARE_WEB % 4, THETA % 4):
        graph = _graph(text)
        key = _resolution_key(graph)
        assert _resolution_key(_relabeled(graph, lambda v: 3 * v + 7)) == key
        assert _resolution_key(_relabeled(graph, lambda v: -v)) != key

        w = next(v for v, kind in graph.vertices.items() if kind == "vout")
        swapped = graph.copy()
        a, b = swapped.succ[4 * w + S0], swapped.succ[4 * w + S1]
        swapped.succ[4 * w + S0], swapped.succ[4 * w + S1] = b, a
        swapped.pred[a], swapped.pred[b] = 4 * w + S1, 4 * w + S0
        assert _resolution_key(swapped) != key

        for loops in ("loops_single", "loops_double"):
            looped = graph.copy()
            setattr(looped, loops, getattr(looped, loops) + 1)
            assert _resolution_key(looped) != key


def _spellings(text):
    """The piece lines and glue lines of text as written, with each
    wide a b c d spelled as vin c d D1 / vout D2 a b, and with a dline
    between the two."""
    header, *lines = text.splitlines()
    spelled = {how: ([], []) for how in ("as is", "vin/vout", "dline")}
    names = ("d%d" % k for k in itertools.count(1))
    for line in lines:
        kind, *params = line.split()
        if kind != "wide":
            for pieces, glues in spelled.values():
                (glues if kind == "glue" else pieces).append(line)
            continue
        a, b, c, d = params
        d1, d2, d3, d4 = (next(names) for _ in range(4))
        spelled["as is"][0].append(line)
        spelled["vin/vout"][0].extend(["vin %s %s %s" % (c, d, d1),
                                       "vout %s %s %s" % (d2, a, b)])
        spelled["vin/vout"][1].append("glue %s %s" % (d1, d2))
        spelled["dline"][0].extend(["vin %s %s %s" % (c, d, d1),
                                    "dline %s %s" % (d3, d2),
                                    "vout %s %s %s" % (d4, a, b)])
        spelled["dline"][1].extend(["glue %s %s" % (d1, d2),
                                    "glue %s %s" % (d3, d4)])
    return header, spelled.values()


def _respelled(text):
    """text and its vin/vout and dline spellings (ROADMAP item 12)."""
    header, (_, *trivalent) = _spellings(text)
    return [text] + ["\n".join([header] + pieces + glues) + "\n"
                     for pieces, glues in trivalent]


def test_equal_partial_keys_rank_the_pending_vins_alike():
    # merging partial states on the plain key is exact only if equal keys
    # put each crossing still to resolve at the same rank; closed braids of
    # 4-9 letters as in the links benchmark, with wide letters mixed in and
    # the piece lines shuffled, so crossings and other vertices interleave
    rng = random.Random(23)
    texts = []
    for _ in range(120):
        strands = rng.randint(2, 4)
        word = [(rng.choice(("xplus", "xminus", "wide")),
                 rng.randrange(strands - 1))
                for _ in range(rng.randint(4, 9))]
        header, spellings = _spellings(
            _closure_text(rng.randint(3, 5), strands, word))
        for pieces, glues in spellings:
            rng.shuffle(pieces)
            texts.append("\n".join([header] + pieces + glues) + "\n")
    merged = stuck = 0
    for text in texts:
        d = parse_diagram(text)
        crossings = sum(p.kind in CROSSINGS for p in d.pieces)
        for depth in range(crossings + 1):
            graphs, pairs = _partial_states(d, depth)
            ranks = {}
            for g in graphs:
                vids = sorted(g.vertices)
                pending = tuple(vids.index(win) for win, _ in pairs[depth:])
                key = _resolution_key(g)
                merged += key in ranks
                assert ranks.setdefault(key, pending) == pending, text
        expected = _outcome(_every_resolution_walked, d)
        assert _outcome(_bracket_leaves, d) == expected, text
        stuck += isinstance(expected, str)
    assert merged and 0 < stuck < len(texts)


def test_all_path_values_of_loops_and_of_a_stuck_graph():
    # a graph of loops only has no rewrite to take: its one value is the
    # bracket's; a graph that no relation matches has none
    for n in range(2, 6):
        assert all_path_values(_graph(CIRCLE % n)) == {quantum_integer(n)}
    # the closure of (W1 W0)^3 on three strands (ROADMAP item 6)
    stuck = _graph("n 4\narc x1 x2\narc x3 x4\narc x5 x6\n"
                   "wide x7 x8 x9 x10\nwide x11 x12 x13 x14\n"
                   "wide x15 x16 x17 x18\nwide x19 x20 x21 x22\n"
                   "wide x23 x24 x25 x26\nwide x27 x28 x29 x30\n"
                   "glue x4 x9\nglue x6 x10\nglue x2 x13\nglue x7 x14\n"
                   "glue x12 x17\nglue x8 x18\nglue x11 x21\n"
                   "glue x15 x22\nglue x20 x25\nglue x16 x26\n"
                   "glue x19 x29\nglue x23 x30\nglue x27 x1\n"
                   "glue x28 x3\nglue x24 x5\n")
    with pytest.raises(StuckGraph) as e:
        all_path_values(stuck)
    assert str(e.value).startswith("no relation applies; residual graph:")
