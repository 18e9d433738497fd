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

from .diagram import (CROSSINGS, DOUBLE_SLOTS, ROLES, Diagram, DiagramError,
                      Piece, parse_diagram, refuse_crossings)
from .laurent import LaurentPoly, quantum_integer

VERTEX_KINDS = ("vin", "vout")


class StuckGraph(ValueError):
    """No relation applies to the residual graph."""

    def __init__(self, graph):
        super().__init__("no relation applies; residual graph:\n%s" % graph)
        self.graph = graph


class MOYGraph:
    """Mutable closed graph: vertices, attached edges, and free loops.

    Edge endpoints are (vertex id, port).  Ports are "s0"/"s1" for the
    single slots of a vertex and "d" for its double slot.
    """

    def __init__(self, n):
        self.n = n
        self.vertices = {}      # vid -> "vin" | "vout"
        self.edges = {}         # eid -> [kind, src, dst]
        self.loops_single = 0
        self.loops_double = 0
        self._next_vid = 0
        self._next_eid = 0

    def copy(self):
        g = MOYGraph(self.n)
        g.vertices = dict(self.vertices)
        g.edges = {e: list(v) for e, v in self.edges.items()}
        g.loops_single = self.loops_single
        g.loops_double = self.loops_double
        g._next_vid = self._next_vid
        g._next_eid = self._next_eid
        return g

    def add_vertex(self, kind):
        if kind not in VERTEX_KINDS:
            raise ValueError("vertex kind must be vin or vout")
        vid = self._next_vid
        self._next_vid += 1
        self.vertices[vid] = kind
        return vid

    def add_edge(self, kind, src, dst):
        eid = self._next_eid
        self._next_eid += 1
        self.edges[eid] = [kind, src, dst]
        return eid

    def add_loop(self, kind):
        if kind == "single":
            self.loops_single += 1
        else:
            self.loops_double += 1

    def edge_at(self, vid, port, end):
        """The unique edge whose src (end=1) or dst (end=2) is (vid, port)."""
        for eid, (_, src, dst) in self.edges.items():
            if (src, dst)[end - 1] == (vid, port):
                return eid
        raise KeyError("no edge at %s of vertex %d port %s"
                       % ("src dst".split()[end - 1], vid, port))

    def out_edge(self, vid, port):
        return self.edge_at(vid, port, 1)

    def in_edge(self, vid, port):
        return self.edge_at(vid, port, 2)

    def join(self, ein, eout):
        """Splice the edge ending at a removed vertex to the edge leaving
        it.  Both endpoints' vertices must already be deleted."""
        self.join_many([(ein, eout)])

    def join_many(self, stitches):
        """Apply several (ein, eout) splices at once.

        Each stitch says: the edge ein now continues as eout.  Chains of
        stitches compose; a cycle of stitches closes into a free loop.
        """
        cont = dict(stitches)
        eouts = set(cont.values())
        consumed = set()
        for e0 in sorted(cont):
            if e0 in consumed or e0 in eouts:
                continue
            chain = [e0]
            e = e0
            while e in cont:
                e = cont[e]
                chain.append(e)
            self.edges[e0][2] = self.edges[chain[-1]][2]
            for mid in chain[1:]:
                del self.edges[mid]
                consumed.add(mid)
            consumed.add(e0)
        for e0 in sorted(cont):
            if e0 in consumed:
                continue
            chain = [e0]
            e = cont[e0]
            while e != e0:
                chain.append(e)
                e = cont[e]
            kind = self.edges[e0][0]
            for mid in chain:
                del self.edges[mid]
                consumed.add(mid)
            self.add_loop(kind)

    def remove_vertices(self, vids):
        for vid in vids:
            del self.vertices[vid]

    def singles_between(self, w, v):
        """Single edges from vertex w to vertex v, sorted by id."""
        return sorted(eid for eid, (kind, src, dst) in self.edges.items()
                      if kind == "single" and src and dst
                      and src[0] == w and dst[0] == v)

    def __str__(self):
        parts = ["n=%d" % self.n]
        for vid in sorted(self.vertices):
            parts.append("vertex %d: %s" % (vid, self.vertices[vid]))
        for eid in sorted(self.edges):
            kind, src, dst = self.edges[eid]
            parts.append("edge %d: %s %s -> %s" % (eid, kind, src, dst))
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
                g.add_edge("double", (win, "d"), (wout, "d"))
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
                kind = ("double" if slot in DOUBLE_SLOTS[p.kind]
                        else "single")
                q, qslot = consumer(diagram.class_of(name))
                while is_wire(q):
                    visited.add(id(q))
                    out_slot = ROLES[q.kind].index("out")
                    q, qslot = consumer(diagram.class_of(q.params[out_slot]))
                g.add_edge(kind, endpoint[(id(p), slot)],
                           endpoint[(id(q), qslot)])

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
        if graph.vertices[w] != "vout":
            continue
        for v in sorted(graph.vertices):
            if graph.vertices[v] != "vin":
                continue
            if len(graph.singles_between(w, v)) == 2:
                out.append((w, v))
    return out


def _apply_digon(graph, match):
    w, v = match
    e1, e2 = graph.singles_between(w, v)
    ein = graph.in_edge(w, "d")
    eout = graph.out_edge(v, "d")
    del graph.edges[e1]
    del graph.edges[e2]
    graph.remove_vertices((w, v))
    graph.join(ein, eout)
    return quantum_integer(2)


def _bigon_matches(graph):
    """Relation (6): double edge vin v -> vout w plus one single w -> v."""
    out = []
    for v in sorted(graph.vertices):
        if graph.vertices[v] != "vin":
            continue
        dbl = graph.out_edge(v, "d")
        dst = graph.edges[dbl][2]
        w = dst[0]
        if graph.vertices.get(w) != "vout" or dst[1] != "d":
            continue
        for back in graph.singles_between(w, v):
            out.append((v, w, back))
    return out


def _apply_bigon(graph, match):
    v, w, back = match
    back_src_port = graph.edges[back][1][1]
    back_dst_port = graph.edges[back][2][1]
    other_in_port = "s1" if back_dst_port == "s0" else "s0"
    other_out_port = "s1" if back_src_port == "s0" else "s0"
    ein = graph.in_edge(v, other_in_port)
    eout = graph.out_edge(w, other_out_port)
    del graph.edges[graph.out_edge(v, "d")]
    del graph.edges[back]
    graph.remove_vertices((v, w))
    graph.join(ein, eout)
    return quantum_integer(graph.n - 1)


def _square_matches(graph):
    """Relation (7): the printed oriented square.

    Vertices p (vin), q (vout), r (vin), s (vout); double edges p -> q
    and r -> s; single edges q -> r and s -> p; one external single into
    p and into r, one external single out of q and out of s.
    """
    out = []
    for p in sorted(graph.vertices):
        if graph.vertices[p] != "vin":
            continue
        dbl_pq = graph.out_edge(p, "d")
        q, qport = graph.edges[dbl_pq][2]
        if graph.vertices.get(q) != "vout" or qport != "d":
            continue
        for r in sorted(graph.vertices):
            if r == p or graph.vertices[r] != "vin":
                continue
            qr = graph.singles_between(q, r)
            if len(qr) != 1:
                continue
            dbl_rs = graph.out_edge(r, "d")
            s, sport = graph.edges[dbl_rs][2]
            if graph.vertices.get(s) != "vout" or sport != "d" or s == q:
                continue
            sp = graph.singles_between(s, p)
            if len(sp) != 1:
                continue
            out.append((p, q, r, s, qr[0], sp[0]))
    return out


def _apply_square(graph, match):
    """Returns [(coefficient, rewritten graph), ...] — a two-term sum."""
    p, q, r, s, qr, sp = match
    sp_in_port = graph.edges[sp][2][1]
    qr_in_port = graph.edges[qr][2][1]
    e_p = graph.in_edge(p, "s1" if sp_in_port == "s0" else "s0")
    e_r = graph.in_edge(r, "s1" if qr_in_port == "s0" else "s0")
    f_q = graph.out_edge(q, "s1" if graph.edges[qr][1][1] == "s0" else "s0")
    f_s = graph.out_edge(s, "s1" if graph.edges[sp][1][1] == "s0" else "s0")

    terms = []
    one = LaurentPoly({0: 1})
    for coeff, pairs in ((one, ((e_r, f_q), (e_p, f_s))),
                         (quantum_integer(graph.n - 2),
                          ((e_p, f_q), (e_r, f_s)))):
        g = graph.copy()
        for eid in (graph.out_edge(p, "d"), graph.out_edge(r, "d"), qr, sp):
            del g.edges[eid]
        g.remove_vertices((p, q, r, s))
        g.join_many(pairs)
        terms.append((coeff, g))
    return terms


def bracket(graph, first_match=None):
    """Evaluate a closed graph to a LaurentPoly.

    first_match optionally forces the first rewrite, as a pair
    (relation name, match tuple) — used to compare rewrite paths.
    """
    graph = graph.copy()
    if not graph.vertices:
        if graph.edges:
            raise StuckGraph(graph)
        return _loop_value(graph)

    if first_match is not None:
        name, match = first_match
        return _apply(graph, name, match)

    for name, matcher in (("digon", _digon_matches),
                          ("bigon", _bigon_matches),
                          ("square", _square_matches)):
        matches = matcher(graph)
        if matches:
            return _apply(graph, name, matches[0])
    raise StuckGraph(graph)


def _apply(graph, name, match):
    if name == "digon":
        return _apply_digon(graph, match) * bracket(graph)
    if name == "bigon":
        return _apply_bigon(graph, match) * bracket(graph)
    if name == "square":
        total = LaurentPoly()
        for coeff, g in _apply_square(graph, match):
            total = total + coeff * bracket(g)
        return total
    raise ValueError("unknown relation %r" % name)


def all_path_values(graph):
    """Values along every rewrite path; confluence means one element."""
    if not graph.vertices:
        return {bracket(graph)}
    out = set()
    for name, matcher in (("digon", _digon_matches),
                          ("bigon", _bigon_matches),
                          ("square", _square_matches)):
        for match in matcher(graph):
            out.add(bracket(graph, first_match=(name, match)))
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
