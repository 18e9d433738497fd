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

Many graphs a walk meets are the same graph under other vertex ids.
Every choice the walk makes reads only the order of the ids, their
kinds, the edges' ports and the loop counts: the matchers scan the ids
in sorted order, a square orders its two candidates by id, and a splice
deletes vertices but never makes one.  Take two graphs with equal
order-relative keys (_resolution_key: the loop counts, then per vertex
in id order its out-edges as ranks), so that an order-preserving
renaming of the ids maps one onto the other.  Both make the same
rewrite, at vertices matched by the renaming, with the same factors.
Each term splices matched vertices with matched stitches, so it counts
the same loops and leaves two graphs that the same renaming, restricted
to the vertices left, again maps onto each other: their keys are equal
again.  By induction on the vertex count, two graphs with equal keys,
resolutions or any graph a walk reaches, make the same rewrites and
reach the same leaves, counted from the exponents each was reached with.

So the walks of one bracket_text or bracket call share their sub-walks
by key.  A walk returns the leaves of its graph counted from that graph,
and looks every graph on its way up in a memo that lives for the call
and dies with it.  A miss enters the graph with the exponents reached so
far and the Counter that collects its leaves; a hit adds the stored
leaves at the current exponents and ends that branch.  A graph is
entered before its subtree is finished, but nothing in its subtree can
hit it, since every rewrite deletes vertices and equal keys mean equal
vertex counts: a key has 2 + 3 * #vin entries, and #vin = #vout.  The
walk loops along single-term rewrites (digon, bigon) and recurses only
into the terms of a sum but the last, as a walk without a memo does, so
its depth does not grow.

bracket_text builds the graph once and resolves its crossings one level
at a time, in piece order, without ever building all 2^c resolutions.
A partial state, with the first d crossings resolved, is keyed by its
plain order-relative key.  Each level maps a key to one representative
graph and a dict of skein starts {(k, a): sign} summed over every way
of reaching it.  A state's arcs child has its key derived from the
state's key, and its starts gain ±(n-1) in k; only when the level does
not hold that key yet is the crossing's pair spliced on a copy of the
state's graph.  The wide child is the state's own graph under the
parent's key, and its starts gain ±n in k and flip sign.  Before the
next crossing is resolved, every digon of a state whose two vertices
lie below that crossing's vin is spliced in place, its factor [2]
raises a in the state's starts, and the states whose new keys agree
are merged, in the order of first appearance.  After the last level
each distinct resolution is walked once, under the key its level
already holds, and its leaves are shifted by its starts before all are
evaluated together.

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

The same facts give the arcs child's key without its graph.  The vin
of the crossing at depth d begins a key tail of fixed length (one int
per vin, two per vout), and its rank r is the state's vertex count less
the fixed count of the vertices from it on; its vout, with id vin + 1,
has rank r + 1.  The arcs splice drops the two entries, points the
single edges that went to 2r and 2r + 1 at where the vout's s0 and s1
lead, following the chain through the vin and counting a closed chain
as one single loop, and lowers every rank above r + 1 by two
(_arcs_key).  So a copy is made only for an arcs key new to its level.
A wide child and a digon splice take the state's own graph, which no
other key of the level holds, and the first representative of every
key is the first state's graph that reached it.

A parent's arcs child comes before its wide child, and the parents of a
level come in the order of their smallest resolution prefix (arcs before
wide, the first crossing outermost); so does each key's first
appearance, before and after the digons are spliced.  Hence the walks
are of the first resolution of each key in the order of
expand_crossings.  A stuck graph raises StuckGraph and ends the call; a
memo hit is always a finished subtree, so it stuck nowhere, and the
graph a StuckGraph names is the first stuck graph in expand_crossings
order, exactly as if every resolution were built and walked without
sharing.  The sharing is exact, not a heuristic, and it lives only as
long as one call.
"""

import itertools
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
    """No relation applies to the residual graph."""

    def __init__(self, graph):
        super().__init__("no relation applies; residual graph:\n%s" % graph)
        self.graph = graph


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
        graph, _ = _build(diagram)
        refuse_crossings(diagram)
        return graph


def _build(diagram):
    """The graph of a closed diagram, and the vin/vout pair of each crossing
    in piece order.

    The vertices are numbered 0, 1, ... in piece order; a wide edge or a
    crossing is a vin/vout pair, numbered in turn and joined by an
    internal double edge.  An arc or a dline is a wire: one port that
    both takes and gives its edge, under a negative id of its own.  One
    splice removes the wires and counts the loops they close.
    """
    require_closed(diagram, "bracket")
    g = MOYGraph(diagram.n)
    vids = itertools.count()
    endpoint = {}     # (piece, slot) -> port
    pairs = []        # (vin, vout) of each crossing
    wires = []
    for p in diagram.pieces:
        if p.kind in VERTEX_PORTS:
            vid = next(vids)
            g.vertices[vid] = p.kind
            ports = [4 * vid + slot for slot in VERTEX_PORTS[p.kind]]
        elif p.kind in WIRE_SLOTS:
            wire = 4 * (-1 - len(wires)) + WIRE_SLOTS[p.kind]
            g.vertices[wire >> 2] = p.kind  # until the splice below
            wires.append(wire)
            ports = (wire, wire)
        else:
            win, wout = next(vids), next(vids)
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
    return g, pairs


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
    leaves = _walk(graph.copy(), {}, first_match=first_match)
    return _evaluate(graph.n, {(0, *powers): count
                               for powers, count in leaves.items()})


def _walk(graph, memo, key=None, first_match=None):
    """Rewrite graph in place down to free loops and return its leaves: a
    Counter of their exponent tuples (a, b, c, ls, ld), with a, b and c
    counted from graph.

    memo maps the key of every graph entered so far in one call to (acc,
    base): that graph's leaves are those counted in acc, less base in a,
    b and c.  key is graph's own, when the caller has it.  Each graph on
    the way is looked up by its key: a hit adds the stored leaves at the
    exponents reached so far and ends the walk; a miss enters the graph
    with those exponents, since every leaf counted in acc from then on
    lies below it.  A sum's last term is walked in place, collected in a
    fresh Counter that joins acc at its offset when the walk ends; every
    other term is walked, in full, on a copy.  first_match, when given,
    is the rewrite made on graph itself; graph is entered all the same,
    as no graph below it can hit it (the module docstring).
    """
    acc, exps = Counter(), (0, 0, 0)
    outer = []          # (acc, exps) that each fresh Counter joins
    while graph.vertices:
        if key is None:
            key = _resolution_key(graph)
        hit = memo.get(key)
        if hit is not None:
            _add(acc, exps, *hit)
            break
        memo[key] = (acc, exps)
        key = None
        name, match = first_match or _next_rewrite(graph)
        first_match = None
        vids, terms = RELATIONS[name][1](graph, match)
        *others, (slot, stitches) = terms
        for other_slot, other_stitches in others:
            g = graph.copy()
            g.splice(vids, other_stitches)
            _add(acc, _raised(exps, other_slot), _walk(g, memo))
        graph.splice(vids, stitches)
        exps = _raised(exps, slot)
        if others:
            outer.append((acc, exps))
            acc, exps = Counter(), (0, 0, 0)
    else:
        acc[(*exps, graph.loops_single, graph.loops_double)] += 1
    while outer:
        parent, offset = outer.pop()
        _add(parent, offset, acc)
        acc = parent
    return acc


def _raised(exps, slot):
    """exps (a, b, c) with the exponent of the factor at slot raised by one
    (None: the coefficient 1)."""
    if not slot:
        return exps
    out = list(exps)
    out[slot - 1] += 1
    return tuple(out)


def _add(acc, exps, leaves, base=(0, 0, 0)):
    """Count into acc the leaves less base plus exps in a, b, c."""
    da, db, dc = (e - b for e, b in zip(exps, base))
    for (a, b, c, ls, ld), count in leaves.items():
        acc[(a + da, b + db, c + dc, ls, ld)] += count


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


def _arcs_key(key, tail, r):
    """The key of a partial state's arcs child, from the state's key alone.

    The crossing's vin has rank r and its entry begins the last tail
    entries of the key; its vout, at rank r + 1, follows with its s0 and
    s1 targets.  The splice drops those three entries.  A single edge into
    the vin's s0 or s1 (2r or 2r + 1) goes on to where the vout's s0 or
    s1 leads, through the vin once more if it leads back there; a chain
    that closes on the vin is one single loop, and no other edge points
    into it.  Every rank above r + 1 drops by two.
    """
    a, pos = 2 * r, len(key) - tail
    t0, t1 = key[pos + 1], key[pos + 2]
    loops = (t0 == a) + (t1 == a + 1) + (t0 == a + 1 and t1 == a)
    # where a strand into the vin's s0 (a) or s1 (a + 1) leaves the pair
    into = {a: t1 if t0 == a + 1 else t0, a + 1: t0 if t1 == a else t1}
    into = {v: w - 4 if w > a + 3 else w for v, w in into.items()}
    low = ~(r + 1)      # a vin's target below low has a rank above r + 1
    return (key[0] + loops, key[1],
            *[v - 4 if v > a + 3 else into[v] if v >= a
              else v + 2 if v < low else v
              for v in key[2:pos] + key[pos + 3:]])


def _bracket_leaves(diagram):
    """The counted leaves of every resolution of a closed diagram.

    The crossings are resolved level by level in piece order, and equal
    partial states are merged: a level maps each key to its first graph
    and its summed skein starts {(k, a): sign}.  Every vertex from a
    crossing's vin on is in every state of its level, so the vin's entry
    starts a key tail of fixed length and its rank r is the state's
    vertex count less a fixed count; the arcs child's key is the
    parent's, spliced there (_arcs_key), and its graph is copied and
    spliced only when that key is new to the level.  Before the next
    crossing, each state's digons below its vin are spliced and the
    states are merged again on their new keys (_contract_digons).  Then
    each distinct resolution is walked once under its key, in the order
    its key first appeared, with one memo shared by all the walks, and
    its leaves are shifted by its starts.  That is the order of its first
    resolution in expand_crossings, so StuckGraph names the graph a walk
    of every resolution would stop at.
    """
    graph, pairs = _build(diagram)
    n = diagram.n
    crossings = [p for p in diagram.pieces if p.kind in CROSSINGS]
    # the built vertices: digon splices shrink graph itself below each vin
    kinds = sorted(graph.vertices.items())
    level = {_resolution_key(graph): (graph, {(0, 0): 1})}
    for depth, (p, (win, wout)) in enumerate(zip(crossings, pairs)):
        s = 1 if p.kind == "xplus" else -1
        stitches = [(4 * win + S0, 4 * wout + S0),
                    (4 * win + S1, 4 * wout + S1)]
        # the vertices from win on: a vin has one entry in a key, a vout two
        above = [kind for v, kind in kinds if v >= win]
        tail = len(above) + above.count("vout")
        merged = {}
        for key, (g, starts) in level.items():
            arcs_key = _arcs_key(key, tail, len(g.vertices) - len(above))
            if arcs_key not in merged:
                arcs = g.copy()
                arcs.splice((win, wout), stitches)
                merged[arcs_key] = (arcs, {})
            if key not in merged:
                merged[key] = (g, {})
            _add_starts(merged[arcs_key][1], starts, s * (n - 1), 0, 1)
            _add_starts(merged[key][1], starts, s * n, 0, -1)
        if depth + 1 < len(pairs):
            merged = _contract_digons(merged, pairs[depth + 1][0])
        level = merged
    memo = {}
    total = Counter()
    for key, (g, starts) in level.items():
        for (a, *powers), count in _walk(g, memo, key).items():
            for (k, a0), sign in starts.items():
                total[(k, a0 + a, *powers)] += sign * count
    return total


def _add_starts(acc, starts, dk, da, flip):
    """Add flip times the skein starts {(k, a): sign}, shifted by dk in k
    and by da in a, into acc."""
    for (k, a), sign in starts.items():
        acc[(k + dk, a + da)] = acc.get((k + dk, a + da), 0) + flip * sign


def _contract_digons(level, below):
    """level with the digons of each state spliced whose vout and vin both
    lie below the vid below, and the states merged again on their new
    keys in the order of first appearance.

    A state's graph is its own (no other key of the level holds it), so
    it is spliced in place.  Each digon raises a in the state's starts by
    one, for its factor [2].
    """
    out = {}
    for key, (g, starts) in level.items():
        succ = g.succ
        gone, stitches = [], []
        for w, kind in g.vertices.items():
            if kind == "vout" and w < below:
                v = succ[4 * w + S0] >> 2
                if v < below and succ[4 * w + S1] >> 2 == v:
                    gone += (w, v)
                    stitches.append((4 * w + SD, 4 * v + SD))
        if stitches:
            g.splice(gone, stitches)
            key = _resolution_key(g)
        if key not in out:
            out[key] = (g, {})
        _add_starts(out[key][1], starts, 0, len(stitches), 1)
    return out


def bracket_text(text):
    """Parse diagram source (crossings allowed) and evaluate the bracket.

    The graph is built once, its crossings are resolved level by level
    with equal partial states merged and the digons below the next
    crossing spliced, and each distinct resolution is walked once, the
    walks sharing their sub-walks by key (_bracket_leaves); all their
    leaves are evaluated together.
    """
    d = parse_diagram(text)
    return _evaluate(d.n, _bracket_leaves(d))
