"""
Laurent-polynomial evaluator for closed planar trivalent graphs.

A graph has trivalent vertices of two kinds — vin (two single edges in,
one double edge out) and vout (one double edge in, two single edges out)
— joined by oriented single and double edges.  Evaluation splices one
private copy of the graph by local relations until only free loops remain
(a relation only describes its rewrite; each term but the last of a sum
is spliced and walked on a copy of its own):

  (3)  disjoint pieces multiply;
  (4)  free single loop = [n];
       free double loop = D = [n][n-1]/[2];
  (5)  two parallel single edges vout -> vin collapse, factor [2];
  (6)  a double edge vin -> vout with one single edge returning
       collapses to a single edge, factor [n-1];
  (7)  the oriented square of four vertices expands into a two-term sum
       with coefficients 1 and [n-2].

Every leaf of the rewrite tree is then worth

  ±q^k [2]^a [n-1]^b [n-2]^c [n]^ls D^ld,

so the walk multiplies no polynomials: it counts the leaves by their
exponent tuples (k, a, b, c, ls, ld), and the value is the sum over the
distinct tuples.  Each product [2]^a [n-1]^b [n-2]^c [n]^ls D^ld is
multiplied out once per n, each factor raised by LaurentPoly's ``**``.

A port, where an edge meets a vertex, is the int 4 * vid + slot, with
slot SD = 0 for the double port d and S0 = 1, S1 = 2 for the single
ports s0 and s1.  The slots stay below 4 and follow the names' order d <
s0 < s1, so ports sort, and so the matchers, the keys and the walk order
run, exactly as the pairs (vid, name) would; port >> 2 is the vid and
port & 3 the slot, for negative vids too, and port ^ 3 swaps s0 and s1.
Only MOYGraph.__str__ spells a port as that pair.

Building a graph from a diagram is one splice: arcs and dlines are wires
that the splice absorbs into the edges they carry, or counts as loops.
A crossing piece (xplus/xminus) is built as its wide edge, and its arcs
resolution is a splice of that vin/vout pair.

Many resolutions, and many partial states on the way to them, are the
same graph under other vertex ids.  Every choice the walk makes reads
only the order of the ids, their kinds, the edges' ports and the loop
counts: the matchers scan the ids in sorted order, a square orders its
two candidates by id, and a splice deletes vertices but never makes one.
Take two graphs with equal order-relative keys (_resolution_key: the
loop counts, then per vertex in id order its out-edges as ranks), so
that an order-preserving renaming of the ids maps one onto the other.
Both make the same rewrite, at vertices matched by the renaming, with
the same factors.  Each term splices matched vertices with matched
stitches, so it counts the same loops and leaves two graphs that the
same renaming, restricted to the vertices left, again maps onto each
other: their keys are equal again.  By induction on the vertex count,
two graphs with equal keys make the same rewrites and reach the same
leaves, counted from the exponents each was reached with.  So of the
resolutions that share a key only one need be walked, and the partial
states below are merged on the same keys.

bracket_text builds the graph once and resolves its crossings one level
at a time, in piece order, without ever building all 2^c resolutions.
A partial state, with the first d crossings resolved, is keyed by its
plain order-relative key.  Each level maps a key to one representative
graph and a dict of skein starts {(k, a): sign} summed over every way
of reaching it.  A state has two children: its arcs child is the
crossing's pair spliced on a copy of the state's graph, and its starts
gain ±(n-1) in k; its wide child is the state's own graph, and its
starts gain ±n in k and flip sign.  Before the next crossing is
resolved, every digon of a child whose two vertices lie below that
crossing's vin is spliced in place, and its factor [2] raises a in the
child's starts.  Each child is then merged into the next level on its
key, in the order of first appearance; a wide child none of whose
digons went keeps its parent's key.  After the last level each distinct
resolution is walked once, and its leaves are shifted by its starts
before all are evaluated together.

Splicing those digons early is exact, and reaches the very graphs the
walks would:

  - the later arcs splices of a call delete only the vertices of
    crossings still to resolve, all at or above the next vin, so they
    touch neither vertex of such a digon nor its two edges w -> v: the
    digon is in every resolution below the state;
  - a walk splices every digon of its graph before any bigon or
    square, since digons come first in RELATIONS, and a digon splice
    rewires only double edges, so it makes and breaks no other digon;
  - digons are vertex-disjoint, and their splices commute, so the
    early splices and the walk's own digons reach the graph the walk's
    digon phase would reach, with the same vids, the same loops and the
    same count of factors [2];
  - only vertices below the next vin go, so every vertex from that vin
    on stays in every state of the level, which the keys below rely on.

From there on every walk makes the rewrites it would have made on the
resolution as built, so the leaves, and the graph a StuckGraph names,
stay the same.  The last level is left to the walk.  Bigons are not
spliced early: that would change which rewrites the walk makes, and so
its leaves, though not their value.

The plain key is enough to merge on.  _build numbers the vertices in
piece order, so every resolved crossing's ids lie below the ids of every
crossing still to resolve, and a splice never makes a vertex.  At depth
d every vertex from the vin of the crossing at depth d on is in every
state of the level: an arcs splice deletes a resolved crossing's pair
and a digon splice two vertices below that vin.  Equal keys mean equal
vertex counts, so two such states keep equally many vertices below it.
A crossing still to resolve has the same vertices between that vin and
its own in both, so it has the same rank in both: the same crossings
are still to resolve at the same places, and the same subtree of
resolutions lies below.

A wide child's digons are spliced on the state's own graph only after
the arcs child has been copied from it, and a level's graph belongs to
one of its keys, so no splice reaches a graph another state holds.  The
first representative of every key is the first child that reached it.

A parent's arcs child comes before its wide child, and the parents of a
level come in the order of their smallest resolution prefix (arcs before
wide, the first crossing outermost); so does each key's first
appearance.  Hence the walks are of the first resolution of each key in
the order of expand_crossings.  A stuck graph raises StuckGraph and ends
the call.
Resolutions of one key stick alike (the induction above), so the first
resolution that sticks in expand_crossings order is the first of its
key, and every key walked before it is that of an earlier resolution,
which sticks nowhere.  So the graph a StuckGraph names is the first stuck
graph in expand_crossings order, exactly as if every resolution were
built and walked on its own.  The merge is exact, not a heuristic, and
it lives only as long as one call.
"""

from collections import Counter, defaultdict
from functools import lru_cache

from .diagram import (CROSSINGS, parse_diagram, refuse_crossings,
                      require_closed)
from .laurent import LaurentPoly, quantum_integer
from .poly import DomainError

# the slots of a port 4 * vid + slot (MOYGraph), in the order of their names
SD, S0, S1 = range(3)
PORT_NAMES = ("d", "s0", "s1")

# the port slot at each parameter slot of a vin or vout piece, and the slot
# of the one port of a wire (_build)
VERTEX_PORTS = {"vin": (S0, S1, SD), "vout": (SD, S0, S1)}
WIRE_SLOTS = {"arc": S0, "dline": SD}


class StuckGraph(DomainError, ValueError):
    """No relation applies to the residual graph.  lines are the sorted
    input lines of the pieces left in it, which _bracket_leaves sets."""

    def __init__(self, graph):
        super().__init__("no relation applies; residual graph:\n%s" % graph)
        self.graph = graph
        self.lines = None


class MOYGraph:
    """Mutable closed graph: vertices, the edges between their ports, and
    free loops.

    A port is one int, 4 * vid + slot, for the double slot d (SD = 0) and
    the single slots s0 (S0 = 1) and s1 (S1 = 2) of a vertex; port >> 2
    is its vid and port & 3 its slot, negative vids included.  As the
    slots lie in 0..3 and their order is that of the names "d" < "s0" <
    "s1", ports sort as the (vid, name) pairs they stand for, which
    __str__ prints.  Each port carries exactly one edge, stored once as
    succ[out-port] = in-port and pred[in-port] = out-port; an edge is
    double when its ports are d ports and single otherwise.  A vin's
    out-port is its d and its in-ports its s0 and s1; a vout's are the
    reverse.
    """

    def __init__(self, n):
        self.n = n
        self.vertices = {}      # vid -> "vin" | "vout"
        self.succ = {}          # out-port -> in-port
        self.pred = {}          # in-port -> out-port
        self.loops_single = 0
        self.loops_double = 0

    def copy(self):
        g = MOYGraph(self.n)
        g.vertices = dict(self.vertices)
        g.succ = dict(self.succ)
        g.pred = dict(self.pred)
        g.loops_single = self.loops_single
        g.loops_double = self.loops_double
        return g

    def splice(self, vids, stitches):
        """Delete the vertices vids and reconnect the strands through them.

        A stitch (in-port, out-port) pairs two ports of deleted vertices:
        the strand that enters at the in-port leaves at the out-port.
        Chains of stitches compose, and a closed chain becomes a free
        loop.  Every other edge at a deleted vertex goes.
        """
        succ, pred = self.succ, self.pred
        gone = set(vids)
        cont = dict(stitches)
        links = []
        seen = set()
        for start in cont:
            src = pred[start]
            if src >> 2 in gone:
                continue            # inside a chain, or on a closed one
            dst = start
            while dst in cont:
                seen.add(dst)
                dst = succ[cont[dst]]
            links.append((src, dst))
        for start in cont:
            if start in seen:
                continue
            dst = start
            while dst not in seen:
                seen.add(dst)
                dst = succ[cont[dst]]
            if start & 3 == SD:
                self.loops_double += 1
            else:
                self.loops_single += 1
        for vid in gone:
            kind = self.vertices.pop(vid)
            port = 4 * vid
            if kind == "vin":
                del succ[port], pred[port + S0], pred[port + S1]
            elif kind == "vout":
                del pred[port], succ[port + S0], succ[port + S1]
            else:       # a wire of _build: one port, in and out
                port += WIRE_SLOTS[kind]
                del succ[port], pred[port]
        for src, dst in links:
            succ[src] = dst
            pred[dst] = src

    def __str__(self):
        def named(port):
            return port >> 2, PORT_NAMES[port & 3]

        parts = ["n=%d" % self.n]
        for vid in sorted(self.vertices):
            parts.append("vertex %d: %s" % (vid, self.vertices[vid]))
        for src, dst in sorted(self.succ.items()):
            parts.append("edge: %s %s -> %s" % (
                "double" if src & 3 == SD else "single", named(src),
                named(dst)))
        if self.loops_single:
            parts.append("single loops: %d" % self.loops_single)
        if self.loops_double:
            parts.append("double loops: %d" % self.loops_double)
        return "\n".join(parts)

    __repr__ = __str__

    # -- construction from a diagram ------------------------------------

    @classmethod
    def from_diagram(cls, diagram):
        graph, _, _ = _build(diagram)
        refuse_crossings(diagram)
        return graph


def _build(diagram):
    """The graph of a closed diagram, the vin/vout pair of each crossing
    in piece order, and the input line of each vid's piece, indexed by vid.

    The vertices are numbered 0, 1, ... in piece order; a wide edge or a
    crossing is a vin/vout pair, numbered in turn and joined by an
    internal double edge.  An arc or a dline is a wire: one port that
    both takes and gives its edge, under a negative id of its own.  One
    splice removes the wires and counts the loops they close.
    """
    require_closed(diagram, "bracket")
    g = MOYGraph(diagram.n)
    lines = []        # vid -> the line of its piece
    endpoint = {}     # (piece, slot) -> port
    pairs = []        # (vin, vout) of each crossing
    wires = []
    for p in diagram.pieces:
        if p.kind in VERTEX_PORTS:
            vid = len(lines)
            lines.append(p.line)
            g.vertices[vid] = p.kind
            ports = [4 * vid + slot for slot in VERTEX_PORTS[p.kind]]
        elif p.kind in WIRE_SLOTS:
            wire = 4 * (-1 - len(wires)) + WIRE_SLOTS[p.kind]
            g.vertices[wire >> 2] = p.kind  # until the splice below
            wires.append(wire)
            ports = (wire, wire)
        else:
            win, wout = len(lines), len(lines) + 1
            lines += [p.line] * 2
            g.vertices[win], g.vertices[wout] = "vin", "vout"
            g.succ[4 * win + SD] = 4 * wout + SD
            ports = (4 * wout + S0, 4 * wout + S1, 4 * win + S0, 4 * win + S1)
            if p.kind in CROSSINGS:
                pairs.append((win, wout))
        for slot, port in enumerate(ports):
            endpoint[(p, slot)] = port
    for info in diagram.classes.values():
        g.succ[endpoint[info["out"]]] = endpoint[info["in"]]
    g.pred = {dst: src for src, dst in g.succ.items()}
    g.splice([port >> 2 for port in wires], [(port, port) for port in wires])
    return g, pairs, lines


# -- relation matching -------------------------------------------------------

def double_loop_value(n):
    """[n][n-1]/[2], the value of a free double loop.

    It is the quantum binomial [n choose 2]: the sum of q^(2(i+j)+2-2n)
    over 0 <= i < j < n, built without a division.
    """
    return LaurentPoly(Counter(2 * (i + j) + 2 - 2 * n
                               for j in range(n) for i in range(j)))


# the factors of a leaf, q^k [2]^a [n-1]^b [n-2]^c [n]^ls D^ld, by their
# index in its exponents (k, a, b, c, ls, ld); an applier names the factor
# of each term by its index, or by None for the coefficient 1
TWO, N_MINUS_1, N_MINUS_2, LOOP, DOUBLE_LOOP = range(1, 6)


def _digon_matches(graph):
    """Relation (5): two parallel single edges vout w -> vin v."""
    succ = graph.succ
    for w in sorted(graph.vertices):
        if graph.vertices[w] == "vout":
            v = succ[4 * w + S0] >> 2
            if succ[4 * w + S1] >> 2 == v:
                yield w, v


def _apply_digon(graph, match):
    w, v = match
    return (w, v), [(TWO, [(4 * w + SD, 4 * v + SD)])]


def _bigon_matches(graph):
    """Relation (6): double edge vin v -> vout w plus one single w -> v.

    A match (v, w, back) names the back edge by its out-port at w.
    """
    succ = graph.succ
    for v in sorted(graph.vertices):
        if graph.vertices[v] != "vin":
            continue
        w = succ[4 * v + SD] >> 2
        for port in (4 * w + S0, 4 * w + S1):
            if succ[port] >> 2 == v:
                yield v, w, port


def _apply_bigon(graph, match):
    v, w, back = match
    return (v, w), [(N_MINUS_1, [(graph.succ[back] ^ 3, back ^ 3)])]


def _square_matches(graph):
    """Relation (7): the printed oriented square.

    Vertices p (vin), q (vout), r (vin), s (vout); double edges p -> q
    and r -> s; single edges q -> r and s -> p; one external single into
    p and into r, one external single out of q and out of s.  A match
    (p, q, r, s, qr, sp) names the edges q -> r and s -> p by their
    out-ports.
    """
    succ = graph.succ
    for p in sorted(graph.vertices):
        if graph.vertices[p] != "vin":
            continue
        q = succ[4 * p + SD] >> 2
        targets = sorted((succ[port] >> 2, port)
                         for port in (4 * q + S0, 4 * q + S1))
        if targets[0][0] == targets[1][0]:
            continue                # both singles of q go to one vertex
        for r, qr in targets:
            if r == p:
                continue
            s = succ[4 * r + SD] >> 2
            sp = [port for port in (4 * s + S0, 4 * s + S1)
                  if succ[port] >> 2 == p]
            if len(sp) == 1:
                yield p, q, r, s, qr, sp[0]


def _apply_square(graph, match):
    """A two-term sum: the square opens up one way or the other."""
    p, q, r, s, qr, sp = match
    # the external in-ports of p and r, and out-ports of q and s: the other
    # single port of each port of the edges q -> r and s -> p
    in_p = graph.succ[sp] ^ 3
    in_r = graph.succ[qr] ^ 3
    out_q = qr ^ 3
    out_s = sp ^ 3
    return (p, q, r, s), [(None, ((in_r, out_q), (in_p, out_s))),
                          (N_MINUS_2, ((in_p, out_q), (in_r, out_s)))]


# relation name -> (matcher, apply); the order is the rewrite priority.  A
# matcher yields its matches in the order of their first vertex id, and
# every apply describes its rewrite without making it, as (removed vertex
# ids, [(factor index, stitches)]) for MOYGraph.splice
RELATIONS = {"digon": (_digon_matches, _apply_digon),
             "bigon": (_bigon_matches, _apply_bigon),
             "square": (_square_matches, _apply_square)}


def bracket(graph, first_match=None):
    """Evaluate a closed graph to a LaurentPoly; graph is left unchanged.

    first_match optionally forces the first rewrite, as a pair
    (relation name, match tuple) — used to compare rewrite paths.
    """
    leaves = _walk(graph.copy(), first_match)
    return _evaluate(graph.n, {(0, *powers): count
                               for powers, count in leaves.items()})


def _walk(graph, first_match=None, exps=(0, 0, 0), acc=None):
    """Rewrite graph in place down to free loops, count its leaves into acc
    and return acc: a Counter of their exponent tuples (a, b, c, ls, ld),
    with a, b and c counted from exps.

    The walk loops along single-term rewrites (digon, bigon) and the last
    term of a sum, made on graph itself; every other term of a sum is
    spliced on a copy and walked, in full, into the same acc.  first_match,
    when given, is the rewrite made on graph first.
    """
    if acc is None:
        acc = Counter()
    while graph.vertices:
        name, match = first_match or _next_rewrite(graph)
        first_match = None
        vids, terms = RELATIONS[name][1](graph, match)
        *others, (slot, stitches) = terms
        for other_slot, other_stitches in others:
            g = graph.copy()
            g.splice(vids, other_stitches)
            _walk(g, exps=_raised(exps, other_slot), acc=acc)
        graph.splice(vids, stitches)
        exps = _raised(exps, slot)
    acc[(*exps, graph.loops_single, graph.loops_double)] += 1
    return acc


def _raised(exps, slot):
    """exps (a, b, c) with the exponent of the factor at slot raised by one
    (None: the coefficient 1)."""
    if not slot:
        return exps
    out = list(exps)
    out[slot - 1] += 1
    return tuple(out)


@lru_cache(maxsize=512)
def _product(n, powers):
    """[2]^a [n-1]^b [n-2]^c [n]^ls D^ld for powers (a, b, c, ls, ld).

    A factor alone is the product of its own slot's power 1, so this cache
    holds each factor of n as one object, and the powers cached on it
    serve every product that raises it."""
    if sum(powers) == 1:
        slot = powers.index(1) + 1
        return (double_loop_value(n) if slot == DOUBLE_LOOP else
                quantum_integer({TWO: 2, N_MINUS_1: n - 1,
                                 N_MINUS_2: n - 2, LOOP: n}[slot]))
    value = None
    for slot, e in enumerate(powers):
        if e:
            unit = (0,) * slot + (1,) + (0,) * (len(powers) - slot - 1)
            term = _product(n, unit) ** e
            value = term if value is None else value * term
    return LaurentPoly.const(1) if value is None else value


def _evaluate(n, leaves):
    """The sum of count * q^k [2]^a [n-1]^b [n-2]^c [n]^ls D^ld over the
    counted leaves, multiplying out each distinct (a, b, c, ls, ld) once
    and adding every term into one sum."""
    shifts = defaultdict(Counter)
    for (k, *powers), count in leaves.items():
        shifts[tuple(powers)][k] += count
    total = defaultdict(int)
    for powers, terms in shifts.items():
        product = _product(n, powers).terms.items()
        for k, count in terms.items():
            for e, c in product:
                total[k + e] += count * c
    return LaurentPoly(total)


def _next_rewrite(graph):
    """The first match of the first relation that has one."""
    for name, (matcher, _) in RELATIONS.items():
        for match in matcher(graph):
            return name, match
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

    Returns [(coeff, arcs)], one pair per resolution, where arcs is the
    tuple of crossing pieces resolved into arcs; the others are resolved
    into wide edges.  xplus a b c d / xminus a b c d use the wide-edge
    convention: a, b outgoing on top, c, d incoming on the bottom.  Each
    crossing expands into its oriented-arcs resolution (arcs c -> a and
    d -> b) and its wide-edge resolution:

      xplus  = q^(n-1) * arcs - q^n * wide
      xminus = q^(1-n) * arcs - q^(-n) * wide

    Arcs come before wide, with the first crossing outermost.
    """
    n = diagram.n
    results = [(0, 1, ())]      # (k, sign, arcs) of a coefficient sign * q^k
    for p in diagram.pieces:
        if p.kind not in CROSSINGS:
            continue
        s = 1 if p.kind == "xplus" else -1
        results = [term for k, sign, chosen in results
                   for term in ((k + s * (n - 1), sign, chosen + (p,)),
                                (k + s * n, -sign, chosen))]
    return [(LaurentPoly({k: sign}), chosen) for k, sign, chosen in results]


def _resolution_key(graph):
    """The graph up to an order-preserving renaming of its vertex ids.

    A flat tuple of ints: the loop counts, then per vertex in id order
    (the order the matchers scan) a vin's double-edge target as ~rank
    (negative, so the key also spells each vertex's kind), or a vout's
    s0 and s1 targets as rank * 2 + (slot == S1).  Equal keys mean the
    walk makes the same rewrites on both graphs and reaches the same
    leaves.
    """
    vids = sorted(graph.vertices)
    rank = {v: i for i, v in enumerate(vids)}
    succ = graph.succ
    key = [graph.loops_single, graph.loops_double]
    for v in vids:
        if graph.vertices[v] == "vin":
            key.append(~rank[succ[4 * v + SD] >> 2])
        else:
            for port in (4 * v + S0, 4 * v + S1):
                target = succ[port]
                key.append(2 * rank[target >> 2] + (target & 3 == S1))
    return tuple(key)


def _bracket_leaves(diagram):
    """The counted leaves of every resolution of a closed diagram.

    The crossings are resolved level by level in piece order, and equal
    partial states are merged: a level maps each key to its first graph
    and its summed skein starts {(k, a): sign}.  Each state's arcs child
    is spliced on a copy of its graph and its wide child is the graph
    itself; each child has its digons below the next crossing's vin
    spliced in place (_contract_digons) and is merged on its key, which
    a wide child without such digons keeps from its parent.  Then each
    distinct resolution is walked once, in the order its key first
    appeared, and its leaves are shifted by its starts.  That is the
    order of its first resolution in expand_crossings, so StuckGraph
    names the graph a walk of every resolution would stop at, and the
    input lines of the pieces left in it.
    """
    graph, pairs, lines = _build(diagram)
    n = diagram.n
    crossings = [p for p in diagram.pieces if p.kind in CROSSINGS]
    level = {_resolution_key(graph): (graph, {(0, 0): 1})}
    for depth, (p, (win, wout)) in enumerate(zip(crossings, pairs)):
        s = 1 if p.kind == "xplus" else -1
        stitches = [(4 * win + S0, 4 * wout + S0),
                    (4 * win + S1, 4 * wout + S1)]
        # digons go below the next crossing's vin, which is at least 2;
        # after the last crossing they are left to the walk
        below = pairs[depth + 1][0] if depth + 1 < len(pairs) else 0
        merged = {}
        for key, (g, starts) in level.items():
            arcs = g.copy()
            arcs.splice((win, wout), stitches)
            for child, dk, flip in ((arcs, s * (n - 1), 1), (g, s * n, -1)):
                da = _contract_digons(child, below) if below else 0
                child_key = (key if child is g and not da
                             else _resolution_key(child))
                if child_key not in merged:
                    merged[child_key] = (child, {})
                _add_starts(merged[child_key][1], starts, dk, da, flip)
        level = merged
    total = Counter()
    for g, starts in level.values():
        try:
            leaves = _walk(g)
        except StuckGraph as exc:
            exc.lines = sorted({lines[v] for v in exc.graph.vertices})
            raise
        for (a, *powers), count in leaves.items():
            for (k, a0), sign in starts.items():
                total[(k, a0 + a, *powers)] += sign * count
    return total


def _add_starts(acc, starts, dk, da, flip):
    """Add flip times the skein starts {(k, a): sign}, shifted by dk in k
    and by da in a, into acc."""
    for (k, a), sign in starts.items():
        acc[(k + dk, a + da)] = acc.get((k + dk, a + da), 0) + flip * sign


def _contract_digons(graph, below):
    """Splice in place every digon of graph whose vout and vin both lie
    below the vid below, and return how many there were: each raises a
    in the graph's skein starts by one, for its factor [2]."""
    succ = graph.succ
    gone, stitches = [], []
    for w, kind in graph.vertices.items():
        if kind == "vout" and w < below:
            v = succ[4 * w + S0] >> 2
            if v < below and succ[4 * w + S1] >> 2 == v:
                gone += (w, v)
                stitches.append((4 * w + SD, 4 * v + SD))
    if stitches:
        graph.splice(gone, stitches)
    return len(stitches)


def bracket_text(text):
    """Parse diagram source (crossings allowed) and evaluate the bracket.

    The graph is built once, its crossings are resolved level by level
    with equal partial states merged and the digons below the next
    crossing spliced, and each distinct resolution is walked once
    (_bracket_leaves); all their leaves are evaluated together.
    """
    d = parse_diagram(text)
    return _evaluate(d.n, _bracket_leaves(d))
