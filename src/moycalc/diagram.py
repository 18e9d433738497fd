"""
Planar diagram pieces, the text DSL, and factorization builders.

Pieces and their boundary parameters:

  arc t h        single edge oriented t -> h
  wide a b c d   wide edge; a,b outgoing (top), c,d incoming (bottom)
  dline h t      double edge oriented t -> h; parameters are (y, z) pairs
  vin a b d      two singles in, one double out
  vout d a b     one double in, two singles out
  xplus a b c d  positive crossing; parameters as for wide
  xminus a b c d negative crossing; parameters as for wide

A parameter name marks exactly one edge end.  ``glue p q`` identifies
two names, one an output use and one an input use, into an internal
point.  Names left unglued form the boundary.  Gluing is substitution:
every identified pair is realized by one polynomial variable shared by
the two pieces that use it.  A piece's factorization depends only on its
kind and n: it is built once per (kind, n) over local variables, without
division, and renamed into place, its potential with it; glue adds the
pieces' potentials (see the mf docstring).

Crossings have no factorization here: only the bracket resolves them
(moybracket.bracket_text), and glue refuses them.
"""

import functools
import re

from .poly import DomainError, Poly, sum_of_products
from .quotient import QuotientRing
from .mf import KoszulMF, KoszulRow
from .symm import pi_poly, power_sum_at, slot_quotients, uv_polys

ARITY = {"arc": 2, "wide": 4, "dline": 2, "vin": 3, "vout": 3,
         "xplus": 4, "xminus": 4}

CROSSINGS = ("xplus", "xminus")

# roles: for each piece kind, the orientation of each parameter slot
ROLES = {
    "arc": ("in", "out"),
    "wide": ("out", "out", "in", "in"),
    "dline": ("out", "in"),
    "vin": ("in", "in", "out"),
    "vout": ("in", "out", "out"),
    "xplus": ("out", "out", "in", "in"),
    "xminus": ("out", "out", "in", "in"),
}

# which slots are double parameters
DOUBLE_SLOTS = {"arc": (), "wide": (), "dline": (0, 1), "vin": (2,),
                "vout": (0,), "xplus": (), "xminus": ()}

_ID = re.compile(r"^[xd][0-9]+$")


class DiagramError(DomainError, ValueError):
    pass


class ParseError(DiagramError):
    def __init__(self, message, line, column=1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


class OrientationMismatch(DiagramError):
    pass


class KindMismatch(DiagramError):
    pass


class DuplicateUse(DiagramError):
    pass


class ArityMismatch(DiagramError):
    pass


class UnsupportedN(DiagramError):
    pass


class Piece:
    __slots__ = ("kind", "params", "line")

    def __init__(self, kind, params, line=0):
        self.kind = kind
        self.params = tuple(params)
        self.line = line


class Diagram:
    """Validated diagram: pieces plus the merged parameter classes.

    merges are (p, q, line) triples, one per glue statement.
    """

    def __init__(self, n, pieces, merges=()):
        self.n = n
        self.pieces = list(pieces)
        self.merges = list(merges)
        self._validate()

    def _validate(self):
        if self.n < 2:
            raise UnsupportedN("n must be >= 2")
        for p in self.pieces:
            if self.n < 3 and p.kind != "arc":
                raise UnsupportedN("line %d: %s needs n >= 3"
                                   % (p.line, p.kind))
            if len(p.params) != ARITY[p.kind]:
                raise ArityMismatch("line %d: %s takes %d parameters"
                                    % (p.line, p.kind, ARITY[p.kind]))

        # every name marks exactly one piece slot; glue joins two names
        uses = {}
        for p in self.pieces:
            for slot, name in enumerate(p.params):
                if name in uses:
                    raise DuplicateUse("line %d: parameter %r used more than "
                                       "once" % (p.line, name))
                uses[name] = (p, slot)

        # a name is glued at most once, so its class is named by the
        # second name of its glue, or by itself when it is not glued
        second = {}
        for a, b, line in self.merges:
            for name in (a, b):
                if name not in uses:
                    raise DiagramError("line %d: glue of unknown parameter %r"
                                       % (line, name))
                if name in second:
                    raise DuplicateUse("line %d: parameter %r glued more than "
                                       "once" % (line, name))
                second[name] = b
            roles = []
            kinds = []
            for name in (a, b):
                p, slot = uses[name]
                roles.append(ROLES[p.kind][slot])
                kinds.append("double" if slot in DOUBLE_SLOTS[p.kind]
                             else "single")
            if kinds[0] != kinds[1]:
                raise KindMismatch("line %d: glue %s %s mixes single and "
                                   "double" % (line, a, b))
            if set(roles) != {"in", "out"}:
                raise OrientationMismatch(
                    "line %d: glue %s %s does not join an output to an input"
                    % (line, a, b))

        classes = {}
        for p in self.pieces:
            for slot, name in enumerate(p.params):
                cls = second.get(name, name)
                kind = "double" if slot in DOUBLE_SLOTS[p.kind] else "single"
                role = ROLES[p.kind][slot]
                info = classes.setdefault(cls, {"kind": kind, "in": None,
                                                "out": None})
                info[role] = (p, slot)

        self._second = second
        self.classes = classes

    def class_of(self, name):
        return self._second.get(name, name)

    def boundary(self):
        """Classes with an unmatched use, as (class, kind, role) triples."""
        out = []
        for cls, info in sorted(self.classes.items()):
            if info["in"] is None:
                out.append((cls, info["kind"], "out"))
            elif info["out"] is None:
                out.append((cls, info["kind"], "in"))
        return out


def parse_diagram(text):
    """Parse diagram source into a validated Diagram.

    A line ends at a line feed, a carriage return or the two together,
    as a universal-newline read counts lines; every other character that
    str.split splits on (form feed and vertical tab among them) is
    whitespace inside a line.
    """
    n = None
    pieces = []
    merges = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "n":
            # any statement before n raises below, so n is first or doubled
            if n is not None:
                raise ParseError("duplicate n statement", lineno,
                                 _column(line, 0))
            if (len(tokens) != 2 or not tokens[1].isascii()
                    or not tokens[1].isdigit()):
                raise ParseError("usage: n <int>", lineno, _column(line, 0))
            n = int(tokens[1])
            if n < 2:
                raise UnsupportedN("line %d: n must be >= 2" % lineno)
            continue
        if n is None:
            raise ParseError("the first statement must be 'n <int>'",
                             lineno, _column(line, 0))
        if head == "glue":
            if len(tokens) != 3:
                raise ParseError("usage: glue <p> <q>", lineno,
                                 _column(line, 0))
            _check_ids(line, tokens, lineno)
            merges.append((tokens[1], tokens[2], lineno))
            continue
        if head not in ARITY:
            raise ParseError("unknown statement %r" % head, lineno,
                             _column(line, 0))
        if len(tokens) != 1 + ARITY[head]:
            raise ParseError("%s takes %d parameters" % (head, ARITY[head]),
                             lineno, _column(line, 0))
        _check_ids(line, tokens, lineno)
        for slot, name in enumerate(tokens[1:]):
            want = "d" if slot in DOUBLE_SLOTS[head] else "x"
            if not name.startswith(want):
                raise ParseError("parameter %r should be a %s-identifier"
                                 % (name, want), lineno,
                                 _column(line, slot + 1))
        pieces.append(Piece(head, tokens[1:], lineno))
    if n is None:
        raise ParseError("empty diagram: missing 'n <int>'", 1)
    return Diagram(n, pieces, merges)


def _check_ids(line, tokens, lineno):
    """Raise at the first parameter of a statement that is no identifier."""
    for index in range(1, len(tokens)):
        if not _ID.match(tokens[index]):
            raise ParseError("bad identifier %r (expected x<int> or d<int>)"
                             % tokens[index], lineno, _column(line, index))


def _column(line, index):
    """The column, from 1, of the index-th token of line (\\S matches what
    str.split keeps).  Only the path that raises a ParseError looks a
    column up."""
    return [m.start() for m in re.finditer(r"\S+", line)][index] + 1


# -- factorization builders --------------------------------------------------

def build_primitive(kind, n, params):
    """The factorization of one piece over explicit variables.

    params: per slot, a single variable for x-parameters or a (y, z)
    variable pair for d-parameters.  The piece's template, built once per
    (kind, n) and without division, is renamed into place, so identified
    parameters (``arc x1 x1``) just merge variables.
    """
    if kind not in ARITY or kind in CROSSINGS:
        raise DiagramError("no factorization for piece kind %r" % kind)
    if len(params) != ARITY[kind]:
        raise ArityMismatch("%s takes %d parameters" % (kind, ARITY[kind]))
    if n < 2 or (kind != "arc" and n < 3):
        raise UnsupportedN("n too small for %s" % kind)
    rows, shift, slots, potential = _template(kind, n)
    mapping = {}
    for local, actual in zip(slots, params):
        if local[0] == "x":
            mapping[local] = actual
        else:
            mapping.update(zip(local, actual))

    def rename(p):
        return p.renamed(mapping)

    return KoszulMF([r.mapped(rename) for r in rows], QuotientRing(), shift,
                    0, rename(potential))


@functools.lru_cache(maxsize=64)
def _template(kind, n):
    """(rows, shift, slots, potential) of one piece over local variables:
    slot i is x_{i+1}, or (y_{i+1}, z_{i+1}) for a d-parameter.

    Rows are built over distinct local variables and renamed afterwards,
    because the difference quotients depend only on (kind, n); so is the
    potential, multiplied out here once.  Slot degrees are pinned because
    renaming can cancel an entry to zero while the slot keeps its degree
    (the circle's x1 - x1, say).
    """
    slots = tuple((("y", i + 1), ("z", i + 1)) if i in DOUBLE_SLOTS[kind]
                  else ("x", i + 1) for i in range(ARITY[kind]))
    local = [tuple(map(Poly.var, v)) if v[0] != "x" else Poly.var(v)
             for v in slots]

    def pair(a, b, c, d):
        return (KoszulRow(a, b, 2 * n, 2), KoszulRow(c, d, 2 * n - 2, 4))

    if kind == "arc":
        tail, head = local
        rows = (KoszulRow(pi_poly(n, ("x", 2), ("x", 1)), head - tail,
                          2 * n, 2),)
        shift = 0
    elif kind == "wide":
        x1, x2, x3, x4 = local
        u, v = uv_polys(n, slots)
        rows = pair(u, x1 + x2 - x3 - x4, v, x1 * x2 - x3 * x4)
        shift = -1
    else:
        if kind == "dline":
            (s, p), (t, q) = local
        elif kind == "vin":
            x1, x2, (s, p) = local
            t, q = x1 + x2, x1 * x2
        else:
            (t, q), x1, x2 = local
            s, p = x1 + x2, x1 * x2
        u, v = slot_quotients(n, s, t, p, q)
        rows = pair(u, s - t, v, p - q)
        shift = -1 if kind == "vout" else 0
    return rows, shift, slots, sum_of_products((r.a, r.b) for r in rows)


def class_variables(diagram):
    """Assign one polynomial variable (or pair) to every parameter class,
    numbered in the order ``Diagram.classes`` holds them: the order in
    which the pieces' slots first name each class."""
    assign = {}
    for k, (cls, info) in enumerate(diagram.classes.items(), start=1):
        if info["kind"] == "single":
            assign[cls] = ("x", k)
        else:
            assign[cls] = (("y", k), ("z", k))
    return assign


def glue(diagram):
    """Tensor all pieces over shared glued variables."""
    refuse_crossings(diagram)
    assign = class_variables(diagram)
    out = KoszulMF()
    for p in diagram.pieces:
        params = [assign[diagram.class_of(name)] for name in p.params]
        out = out @ build_primitive(p.kind, diagram.n, params)
    return out


def refuse_crossings(diagram):
    """Raise at the first crossing: only the bracket resolves crossings."""
    for p in diagram.pieces:
        if p.kind in CROSSINGS:
            raise DiagramError("line %d: %s is a crossing; only the bracket "
                               "resolves crossings" % (p.line, p.kind))


def require_closed(diagram, command):
    """Raise at the first unglued parameter: command needs a closed diagram.

    An open diagram's potential is never zero (its boundary terms lie in
    distinct variables), so refusing it before any reduction refuses
    nothing that could succeed.
    """
    uses = [diagram.classes[cls][role] for cls, _, role in diagram.boundary()]
    if uses:
        p, slot = min(uses, key=lambda use: (use[0].line, use[1]))
        raise DiagramError(
            "line %d: %s %s is not glued; %s needs a closed diagram"
            % (p.line, p.kind, p.params[slot], command))


def boundary_potential(diagram):
    """Signed sum of boundary potentials: out minus in."""
    assign = class_variables(diagram)
    total = Poly()
    for cls, kind, role in diagram.boundary():
        sign = 1 if role == "out" else -1
        if kind == "single":
            total = total + sign * Poly.var(assign[cls]) ** (diagram.n + 1)
        else:
            yv, zv = assign[cls]
            total = total + sign * power_sum_at(diagram.n, Poly.var(yv),
                                                Poly.var(zv))
    return total


class CrossingComplex:
    """The two objects of a crossing's complex; differentials are unset."""

    def __init__(self, sign, objects):
        self.sign = sign
        self.objects = dict(objects)

    def positions(self):
        return sorted(self.objects)


def crossing_complex(sign, n, params=(("x", 1), ("x", 2), ("x", 3), ("x", 4))):
    """Objects of the crossing complex; params are (top1, top2, bot1, bot2).

    positive: wide{n}<1> at position -1, arcs{n-1}<1> at position 0;
    negative: arcs{-n+1}<1> at position 0, wide{-n}<1> at position 1.
    """
    if sign not in ("+", "-"):
        raise DiagramError("sign must be '+' or '-'")
    if n < 2:
        raise UnsupportedN("n must be >= 2")
    x1, x2, x3, x4 = params
    arcs = (build_primitive("arc", n, (x3, x1))
            @ build_primitive("arc", n, (x4, x2)))
    wide = build_primitive("wide", n, params)
    if sign == "+":
        objects = {-1: wide.shifted(n).translate(),
                   0: arcs.shifted(n - 1).translate()}
    else:
        objects = {0: arcs.shifted(-n + 1).translate(),
                   1: wide.shifted(-n).translate()}
    return CrossingComplex(sign, objects)
