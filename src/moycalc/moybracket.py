"""
Laurent-polynomial evaluator for closed planar trivalent graphs.

A graph has trivalent vertices of two kinds — vin (two single edges in,
one double edge out) and vout (one double edge in, two single edges out)
— joined by oriented single and double edges.  Evaluation rewrites the
graph by local relations until only free loops remain:

  (3)  disjoint pieces multiply;
  (4)  free single loop = [n];
       free double loop = [n][n-1]/[2];
  (5)  two parallel single edges vout -> vin collapse, factor [2];
  (6)  a double edge vin -> vout with one single edge returning
       collapses to a single edge, factor [n-1];
  (7)  the oriented square of four vertices expands into a two-term sum
       with coefficients 1 and [n-2].

Crossing pieces (xplus/xminus) expand into their two planar resolutions
with the skein coefficients before evaluation.
"""

from .diagram import (CROSSINGS, ROLES, Diagram, DiagramError, Piece,
                      parse_diagram, refuse_crossings)
from .laurent import LaurentPoly, quantum_integer

VERTEX_KINDS = ("vin", "vout")


class StuckGraph(ValueError):
    """No relation applies to the residual graph."""

    def __init__(self, graph):
        super().__init__("no relation applies; residual graph:\n%s" % graph)
        self.graph = graph


class MOYGraph:
    """Mutable closed graph: vertices, the edges between their ports, and
    free loops.

    A port is (vertex id, "s0" | "s1" | "d"): the single slots and the
    double slot of a vertex.  Each port carries exactly one edge, stored
    once as succ[out-port] = in-port and pred[in-port] = out-port; an
    edge is double when its ports are "d" and single otherwise.
    """

    def __init__(self, n):
        self.n = n
        self.vertices = {}      # vid -> "vin" | "vout"
        self.succ = {}          # out-port -> in-port
        self.pred = {}          # in-port -> out-port
        self.loops_single = 0
        self.loops_double = 0
        self._next_vid = 0

    def copy(self):
        g = MOYGraph(self.n)
        g.vertices = dict(self.vertices)
        g.succ = dict(self.succ)
        g.pred = dict(self.pred)
        g.loops_single = self.loops_single
        g.loops_double = self.loops_double
        g._next_vid = self._next_vid
        return g

    def add_vertex(self, kind):
        if kind not in VERTEX_KINDS:
            raise ValueError("vertex kind must be vin or vout")
        vid = self._next_vid
        self._next_vid += 1
        self.vertices[vid] = kind
        return vid

    def add_loop(self, kind):
        if kind == "single":
            self.loops_single += 1
        else:
            self.loops_double += 1

    def splice(self, vids, stitches):
        """Delete the vertices vids and reconnect the strands through them.

        A stitch (in-port, out-port) pairs two ports of deleted vertices:
        the strand that enters at the in-port leaves at the out-port.
        Chains of stitches compose, and a closed chain becomes a free
        loop.  Every other edge at a deleted vertex goes.
        """
        gone = set(vids)
        cont = dict(stitches)
        links = []
        seen = set()
        for start in cont:
            src = self.pred[start]
            if src[0] in gone:
                continue            # inside a chain, or on a closed one
            dst = start
            while dst in cont:
                seen.add(dst)
                dst = self.succ[cont[dst]]
            links.append((src, dst))
        for start in cont:
            if start in seen:
                continue
            dst = start
            while dst not in seen:
                seen.add(dst)
                dst = self.succ[cont[dst]]
            self.add_loop("double" if start[1] == "d" else "single")
        for vid in gone:
            del self.vertices[vid]
            for port in ("s0", "s1", "d"):
                self.succ.pop((vid, port), None)
                self.pred.pop((vid, port), None)
        for src, dst in links:
            self.succ[src] = dst
            self.pred[dst] = src

    def __str__(self):
        parts = ["n=%d" % self.n]
        for vid in sorted(self.vertices):
            parts.append("vertex %d: %s" % (vid, self.vertices[vid]))
        for src, dst in sorted(self.succ.items()):
            parts.append("edge: %s %s -> %s" % (
                "double" if src[1] == "d" else "single", src, dst))
        if self.loops_single:
            parts.append("single loops: %d" % self.loops_single)
        if self.loops_double:
            parts.append("double loops: %d" % self.loops_double)
        return "\n".join(parts)

    __repr__ = __str__

    # -- construction from a diagram ------------------------------------

    @classmethod
    def from_diagram(cls, diagram):
        if not diagram.is_closed():
            raise DiagramError("bracket needs a closed diagram")
        refuse_crossings(diagram)
        g = cls(diagram.n)

        # a wide edge is a vin/vout pair joined by an internal double edge;
        # arcs and dlines are wires, absorbed into the edges they carry
        endpoint = {}     # (piece id, slot) -> (vid, port)
        for p in diagram.pieces:
            if p.kind in VERTEX_KINDS:
                vid = g.add_vertex(p.kind)
                ports = (("s0", "s1", "d") if p.kind == "vin"
                         else ("d", "s0", "s1"))
                for slot, port in enumerate(ports):
                    endpoint[(id(p), slot)] = (vid, port)
            elif p.kind == "wide":
                win = g.add_vertex("vin")
                wout = g.add_vertex("vout")
                g.succ[(win, "d")] = (wout, "d")
                endpoint[(id(p), 0)] = (wout, "s0")
                endpoint[(id(p), 1)] = (wout, "s1")
                endpoint[(id(p), 2)] = (win, "s0")
                endpoint[(id(p), 3)] = (win, "s1")

        def consumer(cls_name):
            return diagram.classes[cls_name]["in"]

        def is_wire(p):
            return p.kind in ("arc", "dline")

        visited = set()
        for p in diagram.pieces:
            if is_wire(p):
                continue
            for slot, name in enumerate(p.params):
                if ROLES[p.kind][slot] != "out":
                    continue
                q, qslot = consumer(diagram.class_of(name))
                while is_wire(q):
                    visited.add(id(q))
                    out_slot = ROLES[q.kind].index("out")
                    q, qslot = consumer(diagram.class_of(q.params[out_slot]))
                g.succ[endpoint[(id(p), slot)]] = endpoint[(id(q), qslot)]
        g.pred = {dst: src for src, dst in g.succ.items()}

        # wire pieces never reached from a vertex form free loops
        for p in diagram.pieces:
            if not is_wire(p) or id(p) in visited:
                continue
            kind = "double" if p.kind == "dline" else "single"
            q = p
            while True:
                visited.add(id(q))
                out_slot = ROLES[q.kind].index("out")
                q, _ = consumer(diagram.class_of(q.params[out_slot]))
                if id(q) in visited:
                    break
            g.add_loop(kind)
        return g


# -- relation matching -------------------------------------------------------

_OTHER = {"s0": "s1", "s1": "s0"}


def _loop_value(graph):
    n = graph.n
    value = LaurentPoly({0: 1})
    for _ in range(graph.loops_single):
        value = value * quantum_integer(n)
    if graph.loops_double:
        dval = (quantum_integer(n) * quantum_integer(n - 1)).exact_div(
            quantum_integer(2))
        for _ in range(graph.loops_double):
            value = value * dval
    return value


def _digon_matches(graph):
    """Relation (5): two parallel single edges vout w -> vin v."""
    out = []
    for w in sorted(graph.vertices):
        if graph.vertices[w] == "vout":
            v = graph.succ[(w, "s0")][0]
            if graph.succ[(w, "s1")][0] == v:
                out.append((w, v))
    return out


def _apply_digon(graph, match):
    w, v = match
    g = graph.copy()
    g.splice((w, v), [((w, "d"), (v, "d"))])
    return [(quantum_integer(2), g)]


def _bigon_matches(graph):
    """Relation (6): double edge vin v -> vout w plus one single w -> v.

    A match (v, w, back) names the back edge by its out-port at w.
    """
    out = []
    for v in sorted(graph.vertices):
        if graph.vertices[v] != "vin":
            continue
        w = graph.succ[(v, "d")][0]
        for port in ("s0", "s1"):
            if graph.succ[(w, port)][0] == v:
                out.append((v, w, (w, port)))
    return out


def _apply_bigon(graph, match):
    v, w, back = match
    g = graph.copy()
    g.splice((v, w), [((v, _OTHER[graph.succ[back][1]]),
                       (w, _OTHER[back[1]]))])
    return [(quantum_integer(graph.n - 1), g)]


def _square_matches(graph):
    """Relation (7): the printed oriented square.

    Vertices p (vin), q (vout), r (vin), s (vout); double edges p -> q
    and r -> s; single edges q -> r and s -> p; one external single into
    p and into r, one external single out of q and out of s.  A match
    (p, q, r, s, qr, sp) names the edges q -> r and s -> p by their
    out-ports.
    """
    out = []
    for p in sorted(graph.vertices):
        if graph.vertices[p] != "vin":
            continue
        q = graph.succ[(p, "d")][0]
        targets = sorted((graph.succ[(q, port)][0], (q, port))
                         for port in ("s0", "s1"))
        if targets[0][0] == targets[1][0]:
            continue                # both singles of q go to one vertex
        for r, qr in targets:
            if r == p:
                continue
            s = graph.succ[(r, "d")][0]
            sp = [(s, port) for port in ("s0", "s1")
                  if graph.succ[(s, port)][0] == p]
            if len(sp) == 1:
                out.append((p, q, r, s, qr, sp[0]))
    return out


def _apply_square(graph, match):
    """A two-term sum: the square opens up one way or the other."""
    p, q, r, s, qr, sp = match
    # the external in-ports of p and r, and out-ports of q and s
    in_p = (p, _OTHER[graph.succ[sp][1]])
    in_r = (r, _OTHER[graph.succ[qr][1]])
    out_q = (q, _OTHER[qr[1]])
    out_s = (s, _OTHER[sp[1]])
    terms = []
    for coeff, stitches in ((LaurentPoly({0: 1}),
                             ((in_r, out_q), (in_p, out_s))),
                            (quantum_integer(graph.n - 2),
                             ((in_p, out_q), (in_r, out_s)))):
        g = graph.copy()
        g.splice((p, q, r, s), stitches)
        terms.append((coeff, g))
    return terms


# relation name -> (matcher, apply); the order is the rewrite priority, and
# every apply returns the rewritten graphs as [(coefficient, graph)]
RELATIONS = {"digon": (_digon_matches, _apply_digon),
             "bigon": (_bigon_matches, _apply_bigon),
             "square": (_square_matches, _apply_square)}


def bracket(graph, first_match=None):
    """Evaluate a closed graph to a LaurentPoly.

    first_match optionally forces the first rewrite, as a pair
    (relation name, match tuple) — used to compare rewrite paths.
    """
    if first_match is None:
        if not graph.vertices:
            return _loop_value(graph)
        first_match = _next_rewrite(graph)
    name, match = first_match
    total = LaurentPoly()
    for coeff, g in RELATIONS[name][1](graph, match):
        total = total + coeff * bracket(g)
    return total


def _next_rewrite(graph):
    for name, (matcher, _) in RELATIONS.items():
        matches = matcher(graph)
        if matches:
            return name, matches[0]
    raise StuckGraph(graph)


def all_path_values(graph):
    """Values along every rewrite path; confluence means one element."""
    if not graph.vertices:
        return {bracket(graph)}
    out = {bracket(graph, first_match=(name, match))
           for name, (matcher, _) in RELATIONS.items()
           for match in matcher(graph)}
    if not out:
        raise StuckGraph(graph)
    return out


# -- crossings ---------------------------------------------------------------

def expand_crossings(diagram):
    """Resolve the xplus/xminus pieces of a parsed diagram.

    Returns [(coeff, pieces)], one piece list per resolution; pieces are
    shared across the resolutions.  xplus a b c d / xminus a b c d use
    the wide-edge convention: a, b outgoing on top, c, d incoming on the
    bottom.  Each crossing expands into its oriented-arcs and wide-edge
    resolutions:

      xplus  = q^(n-1) * arcs - q^n * wide
      xminus = q^(1-n) * arcs - q^(-n) * wide

    The wide piece or the first arc takes the crossing's place, and the
    second arc goes after the last piece, in crossing order.  The graph's
    vertex ids follow this order, and they decide the rewrite order.
    """
    n = diagram.n
    results = [(LaurentPoly({0: 1}), diagram.pieces)]
    for i, p in enumerate(diagram.pieces):
        if p.kind not in CROSSINGS:
            continue
        a, b, c, d = p.params
        arcs = (Piece("arc", (c, a), p.line), Piece("arc", (d, b), p.line))
        wide = (Piece("wide", p.params, p.line),)
        if p.kind == "xplus":
            coeffs = (LaurentPoly({n - 1: 1}), LaurentPoly({n: -1}))
        else:
            coeffs = (LaurentPoly({1 - n: 1}), LaurentPoly({-n: -1}))
        results = [(coeff * c2, cur[:i] + [repl] + cur[i + 1:] + extra)
                   for coeff, cur in results
                   for c2, (repl, *extra) in zip(coeffs, (arcs, wide))]
    return results


def bracket_text(text):
    """Parse diagram source (crossings allowed) and evaluate the bracket."""
    d = parse_diagram(text)
    total = LaurentPoly()
    for coeff, pieces in expand_crossings(d):
        graph = MOYGraph.from_diagram(Diagram(d.n, pieces, d.merges))
        total = total + coeff * bracket(graph)
    return total
