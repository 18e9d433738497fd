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
the two pieces that use it.

Crossings have no factorization here: only the bracket resolves them
(moybracket.expand_crossings), and glue refuses them.
"""

import re

from .poly import Poly, exact_div
from .quotient import QuotientRing
from .mf import KoszulMF, KoszulRow
from .symm import pi_poly, power_sum_at, uv_polys

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


class DiagramError(ValueError):
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

    def __repr__(self):
        return "%s(%s)" % (self.kind, ", ".join(self.params))


class Diagram:
    """Validated diagram: pieces plus the merged parameter classes."""

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
                raise ArityMismatch("%s takes %d parameters"
                                    % (p.kind, ARITY[p.kind]))

        # every name marks exactly one piece slot; glue joins two names
        uses = {}
        for p in self.pieces:
            for slot, name in enumerate(p.params):
                if name in uses:
                    raise DuplicateUse("parameter %r used more than once"
                                       % name)
                uses[name] = (p, slot)

        glued = set()
        parent = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in self.merges:
            for name in (a, b):
                if name not in uses:
                    raise DiagramError("glue of unknown parameter %r" % name)
                if name in glued:
                    raise DuplicateUse("parameter %r glued more than once"
                                       % name)
                glued.add(name)
            roles = []
            kinds = []
            for name in (a, b):
                p, slot = uses[name]
                roles.append(ROLES[p.kind][slot])
                kinds.append("double" if slot in DOUBLE_SLOTS[p.kind]
                             else "single")
            if kinds[0] != kinds[1]:
                raise KindMismatch("glue %s %s mixes single and double"
                                   % (a, b))
            if set(roles) != {"in", "out"}:
                raise OrientationMismatch(
                    "glue %s %s does not join an output to an input" % (a, b))
            parent[find(a)] = find(b)

        classes = {}
        for p in self.pieces:
            for slot, name in enumerate(p.params):
                cls = find(name)
                kind = "double" if slot in DOUBLE_SLOTS[p.kind] else "single"
                role = ROLES[p.kind][slot]
                info = classes.setdefault(cls, {"kind": kind, "in": None,
                                                "out": None, "names": set()})
                info["names"].add(name)
                info[role] = (p, slot)

        self._find = find
        self.classes = classes

    def class_of(self, name):
        return self._find(name)

    def boundary(self):
        """Classes with an unmatched use, as (class, kind, role) triples."""
        out = []
        for cls, info in sorted(self.classes.items()):
            if info["in"] is None:
                out.append((cls, info["kind"], "out"))
            elif info["out"] is None:
                out.append((cls, info["kind"], "in"))
        return out

    def is_closed(self):
        return not self.boundary()


def parse_diagram(text):
    n = None
    pieces = []
    merges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        column = raw.index(head) + 1
        if head == "n":
            if n is not None:
                raise ParseError("duplicate n statement", lineno, column)
            if pieces or merges:
                raise ParseError("n must be the first statement",
                                 lineno, column)
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("usage: n <int>", lineno, column)
            n = int(tokens[1])
            continue
        if n is None:
            raise ParseError("the first statement must be 'n <int>'",
                             lineno, column)
        if head == "glue":
            if len(tokens) != 3:
                raise ParseError("usage: glue <p> <q>", lineno, column)
            _check_ids(tokens[1:], raw, lineno)
            merges.append((tokens[1], tokens[2]))
            continue
        if head not in ARITY:
            raise ParseError("unknown statement %r" % head, lineno, column)
        if len(tokens) != 1 + ARITY[head]:
            raise ParseError("%s takes %d parameters" % (head, ARITY[head]),
                             lineno, column)
        _check_ids(tokens[1:], raw, lineno)
        for slot, name in enumerate(tokens[1:]):
            want = "d" if slot in DOUBLE_SLOTS[head] else "x"
            if not name.startswith(want):
                raise ParseError("parameter %r should be a %s-identifier"
                                 % (name, want), lineno, raw.index(name) + 1)
        pieces.append(Piece(head, tokens[1:], lineno))
    if n is None:
        raise ParseError("empty diagram: missing 'n <int>'", 1)
    return Diagram(n, pieces, merges)


def _check_ids(tokens, raw, lineno):
    for tok in tokens:
        if not _ID.match(tok):
            raise ParseError("bad identifier %r (expected x<int> or d<int>)"
                             % tok, lineno, raw.index(tok) + 1)


# -- factorization builders --------------------------------------------------

def build_primitive(kind, n, params):
    """The factorization of one piece over explicit variables.

    params: per slot, a single variable for x-parameters or a (y, z)
    variable pair for d-parameters.
    """
    if kind not in ARITY or kind in CROSSINGS:
        raise DiagramError("no factorization for piece kind %r" % kind)
    if len(params) != ARITY[kind]:
        raise ArityMismatch("%s takes %d parameters" % (kind, ARITY[kind]))
    if n < 2 or (kind != "arc" and n < 3):
        raise UnsupportedN("n too small for %s" % kind)

    # Rows are built over distinct local variables and the actual
    # parameters substituted afterwards: identified parameters would
    # otherwise make the difference quotients 0/0.  Slot degrees are
    # pinned because the substitution can cancel an entry to zero while
    # the slot keeps its degree (the circle's x1 - x1, say).
    mapping = {}

    def x(i):
        local = ("x", i + 1)
        mapping[local] = Poly.var(params[i])
        return Poly.var(local)

    def yz(i):
        ly, lz = ("y", i + 1), ("z", i + 1)
        mapping[ly] = Poly.var(params[i][0])
        mapping[lz] = Poly.var(params[i][1])
        return Poly.var(ly), Poly.var(lz)

    def f(s1, s2):
        return power_sum_at(n, s1, s2)

    def row(a, b, deg_b):
        if isinstance(a, tuple):
            top, bottom = a
            a = exact_div(top - bottom, b)
        return KoszulRow(a, b, 2 * (n + 1) - deg_b, deg_b).mapped(
            lambda p: p.substitute(mapping))

    rows = []
    shift = 0
    if kind == "arc":
        tail, head = x(0), x(1)
        rows.append(row(pi_poly(n, ("x", 2), ("x", 1)), head - tail, 2))
    elif kind == "wide":
        u, v = uv_polys(n, (("x", 1), ("x", 2), ("x", 3), ("x", 4)))
        for i in range(4):
            x(i)
        rows.append(row(u, x(0) + x(1) - x(2) - x(3), 2))
        rows.append(row(v, x(0) * x(1) - x(2) * x(3), 4))
        shift = -1
    elif kind == "dline":
        (y1, z1), (y2, z2) = yz(0), yz(1)
        rows.append(row((f(y1, z1), f(y2, z1)), y1 - y2, 2))
        rows.append(row((f(y2, z1), f(y2, z2)), z1 - z2, 4))
    elif kind == "vin":
        x1, x2 = x(0), x(1)
        y3, z3 = yz(2)
        rows.append(row((f(y3, z3), f(x1 + x2, z3)), y3 - x1 - x2, 2))
        rows.append(row((f(x1 + x2, z3), f(x1 + x2, x1 * x2)),
                        z3 - x1 * x2, 4))
    elif kind == "vout":
        y3, z3 = yz(0)
        x1, x2 = x(1), x(2)
        rows.append(row((f(x1 + x2, x1 * x2), f(y3, x1 * x2)),
                        x1 + x2 - y3, 2))
        rows.append(row((f(y3, x1 * x2), f(y3, z3)), x1 * x2 - z3, 4))
        shift = -1
    return KoszulMF(rows, QuotientRing(), shift, 0)


def class_variables(diagram):
    """Assign one polynomial variable (or pair) to every parameter class."""
    order = []
    seen = set()
    for p in diagram.pieces:
        for name in p.params:
            cls = diagram.class_of(name)
            if cls not in seen:
                seen.add(cls)
                order.append(cls)
    assign = {}
    for k, cls in enumerate(order, start=1):
        if diagram.classes[cls]["kind"] == "single":
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
