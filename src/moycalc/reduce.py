"""
Simplification of Koszul factorizations.

The workhorse is variable exclusion: a row whose b-entry (or, after the
translation trick, whose a-entry) is monic in a variable v absent from
the potential can be deleted, passing to the quotient by that entry.
Linear entries (power 1) are eliminated by outright substitution, so no
rule lingers in the base; higher powers become quotient-ring rules.

auto_reduce drives exclusions to a fixpoint and splits the base module
along a rule where none is left.  Exclusions and splits keep the
potential, and a summand without rows has potential 0, so under a nonzero
potential the search just takes the first feasible (row, variable, side).
Under a zero potential a greedy choice can dead-end, so the search
backtracks depth-first to the first branch that reaches zero rows
everywhere; after 16 exclusions it settles for first branches instead.

A trace is a flat list of (kind, info) steps: drop (rows), exclude (row,
var, side, power) and split (var, power, sizes), where a split is followed
by its copies' steps, sizes[k] of them for copy k (the split tree in
pre-order).
"""

import itertools
from fractions import Fraction

from .poly import Poly, mono_sort_key, var_degree, var_key
from .quotient import QuotientRing, TriangularityViolation
from .mf import KoszulMF, MFSum, ZeroScalar


class VariableInPotential(ValueError):
    pass


class NotMonicInVariable(ValueError):
    pass


class ResidualVariable(ValueError):
    pass


class ReductionTrace:
    """The steps of one reduction, laid out as the module docstring says."""

    def __init__(self, steps=()):
        self.steps = list(steps)

    def __len__(self):
        return len(self.steps)


def scale_row(mf, i, c):
    """Lemma-equiv rescaling: row i becomes (c*a; b/c)."""
    c = Fraction(c)
    if not c:
        raise ZeroScalar("scale factor must be nonzero")
    rows = list(mf.rows)
    rows[i] = rows[i].scaled(c)
    return mf.replace(rows=rows)


def _monic_data(p, v):
    """(power d, constant lead coeff c) if p = c*v^d + lower-in-v, else None."""
    d = p.degree_in(v)
    if d == 0:
        return None
    lead = p.coefficient_in(v, d)
    if not lead.is_constant():
        return None
    return d, lead.constant_value()


def exclude_variable(mf, i, v, side=None, potential_vars=None):
    """Remove row i, quotienting the base by its (monic in v) b-entry.

    side "a" first rewrites the row by the translation functor so the
    a-entry becomes the usable b-entry; side None tries b then a.
    potential_vars, the variables of mf's potential, is computed when
    not given; exclusion leaves it unchanged, so a search passes it down.
    """
    if potential_vars is None:
        potential_vars = mf.potential().variables()
    if side is None:
        if _monic_data(mf.rows[i].b, v):
            side = "b"
        elif _monic_data(mf.rows[i].a, v):
            side = "a"
        else:
            raise NotMonicInVariable("row %d is not monic in %s%d" % (i, *v))
    if side == "a":
        mf = mf.flip_row(i)

    row = mf.rows[i]
    data = _monic_data(row.b, v)
    if data is None:
        raise NotMonicInVariable("entry %s is not monic in %s%d" % (row.b, *v))
    d, c = data
    if v in potential_vars:
        raise VariableInPotential("potential contains %s%d" % v)

    mf = scale_row(mf, i, c)  # makes b monic: b = v^d + p
    row = mf.rows[i]
    repl = -(row.b - Poly.var(v, d))
    rows = [r for j, r in enumerate(mf.rows) if j != i]

    if d == 1:
        base = mf.base.substitute(v, repl)
        rows = [r.mapped(lambda p: base.normal_form(p.substitute({v: repl})))
                for r in rows]
    else:
        base = mf.base.with_rule(v, d, repl)
        rows = [r.mapped(base.normal_form) for r in rows]
    return KoszulMF(rows, base, mf.shift, mf.parity)


def eliminate_contractible(mf):
    """Drop every row with a nonzero rational-constant entry."""
    nf = mf.base.normal_form
    rows = []
    dropped = []
    for i, row in enumerate(mf.rows):
        a, b = nf(row.a), nf(row.b)
        if (a.is_constant() and not a.is_zero()) or \
           (b.is_constant() and not b.is_zero()):
            dropped.append(i)
        else:
            rows.append(row)
    return mf.replace(rows=rows), dropped


def split_free_module(mf, v):
    """Split along the rule basis 1, v, ..., v^{d-1} of the base module."""
    rule = mf.base.rule_for(v)
    if rule is None:
        raise ValueError("no rule with leader %s%d" % v)
    d, _ = rule
    nf = mf.base.normal_form
    for i, row in enumerate(mf.rows):
        if nf(row.a).degree_in(v) or nf(row.b).degree_in(v):
            raise ResidualVariable("row %d still contains %s%d" % (i, *v))
    for w, dw, p in mf.base.rules:
        if w != v and p.degree_in(v):
            raise ResidualVariable("rule on %s%d still contains %s%d"
                                   % (w[0], w[1], *v))
    base = QuotientRing([r for r in mf.base.rules if r[0] != v])
    copies = [KoszulMF([r.mapped(nf) for r in mf.rows], base,
                       mf.shift + k * var_degree(v), mf.parity)
              for k in range(d)]
    return MFSum(copies)


def _exclusion_candidates(mf, potential_vars, order=None):
    """Feasible (row, var, side, power) in deterministic preference order."""
    out = []
    for i, row in enumerate(mf.rows):
        variables = sorted(row.a.variables() | row.b.variables(), key=var_key)
        for v in variables:
            if v in potential_vars:
                continue
            for side, entry in (("b", row.b), ("a", row.a)):
                data = _monic_data(entry, v)
                if data is not None:
                    out.append((i, v, side, data[0]))
    if order is not None:
        order.shuffle(out)
    return out


def _splittable_variables(mf):
    if not mf.rows:
        return []
    nf = mf.base.normal_form
    out = []
    for v, d, _ in mf.base.rules:
        if any(nf(r.a).degree_in(v) or nf(r.b).degree_in(v) for r in mf.rows):
            continue
        if any(w != v and p.degree_in(v) for w, _, p in mf.base.rules):
            continue
        out.append(v)
    return sorted(out, key=var_key)


def auto_reduce(mf, order=None):
    """Reduce to a fixpoint; returns (MFSum, ReductionTrace).

    order, if given, is a random.Random used to shuffle candidate order
    (for order-independence testing); default order is deterministic.
    """
    mf = mf.normalized_rows()
    potential = mf.potential()
    summands, steps = _reduce(mf, potential.variables(), potential.is_zero(),
                              order, {"branches": 16})
    return MFSum(summands), ReductionTrace(steps)


def _reduce(mf, potential_vars, zero, order, budget):
    """(summands, steps); potential_vars and zero (is the potential 0?)
    describe mf's potential, which only a drop of rows can change."""
    mf, dropped = eliminate_contractible(mf)
    pre = []
    if dropped:
        pre.append(("drop", {"rows": tuple(dropped)}))
        potential = mf.potential()
        potential_vars, zero = potential.variables(), potential.is_zero()

    best = None
    for (i, v, side, d) in _exclusion_candidates(mf, potential_vars, order):
        if budget["branches"] <= 0 and best is not None:
            break
        try:
            nxt = exclude_variable(mf, i, v, side, potential_vars)
        except (TriangularityViolation, VariableInPotential,
                NotMonicInVariable):
            continue
        if zero:
            budget["branches"] -= 1
        summands, sub = _reduce(nxt, potential_vars, zero, order, budget)
        step = ("exclude", {"row": i, "var": v, "side": side, "power": d})
        branch = summands, pre + [step] + sub
        if not zero or all(not s.rows for s in summands):
            return branch
        best = best or branch
    if best is not None:
        return best

    for v in _splittable_variables(mf):
        out, steps, sizes = [], [], []
        for copy in split_free_module(mf, v):
            summands, sub = _reduce(copy, potential_vars, zero, order, budget)
            out.extend(summands)
            steps.extend(sub)
            sizes.append(len(sub))
        d, _ = mf.base.rule_for(v)
        split = ("split", {"var": v, "power": d, "sizes": tuple(sizes)})
        return out, pre + [split] + steps

    return [mf], pre


def replay(mf, trace):
    """Re-apply a recorded trace to the input factorization."""
    return MFSum(_replay(mf.normalized_rows(), iter(trace.steps)))


def _replay(cur, steps):
    for kind, info in steps:
        if kind == "drop":
            cur = cur.replace(rows=[r for j, r in enumerate(cur.rows)
                                    if j not in info["rows"]])
        elif kind == "exclude":
            cur = exclude_variable(cur, info["row"], info["var"],
                                   info["side"])
        elif kind == "split":
            out = []
            for copy, size in zip(split_free_module(cur, info["var"]),
                                  info["sizes"], strict=True):
                out.extend(_replay(copy, itertools.islice(steps, size)))
            return out
        else:
            raise ValueError("unknown step %r" % kind)
    return [cur]


def canonical_form(mf):
    """Monic-b rows (monic-a when b = 0), sorted, with variables relabeled
    by order of appearance; equality of canonical forms is decidable and
    insensitive to the arbitrary names reduction happens to leave behind.
    Relabeling can cycle between namings; the least state of the cycle wins."""
    seen = []
    cur = _normalize_rows(mf)
    while cur not in seen:
        seen.append(cur)
        cur = _normalize_rows(_relabel(cur))
    return min(seen[seen.index(cur):], key=_state_key)


def _state_key(mf):
    return (tuple(map(_row_key, mf.rows)),
            tuple((var_key(v), d, p.sort_key()) for v, d, p in mf.base.rules))


def _row_key(r):
    return r.b.sort_key(), r.a.sort_key(), r.deg_a, r.deg_b


def _normalize_rows(mf):
    nf = mf.base.normal_form
    rows = []
    for row in mf.rows:
        row = row.mapped(nf)
        if not row.b.is_zero():
            _, lc = row.b.leading()
            row = row.scaled(lc)
        elif not row.a.is_zero():
            _, lc = row.a.leading()
            row = row.scaled(1 / lc)
        rows.append(row)
    rows.sort(key=_row_key)
    return mf.replace(rows=rows)


def _relabel(mf):
    """Rename variables of each kind by first appearance in the sorted
    rows (b before a, monomials in decreasing order), then in the rules."""
    order = []
    seen = set()

    def visit(p):
        for mono in sorted(p.terms, key=mono_sort_key, reverse=True):
            for v, _ in mono:
                if v not in seen:
                    seen.add(v)
                    order.append(v)

    for row in mf.rows:
        visit(row.b)
        visit(row.a)
    for v, _, p in sorted(mf.base.rules, key=lambda r: var_key(r[0])):
        if v not in seen:
            seen.add(v)
            order.append(v)
        visit(p)

    counters = {"x": 0, "y": 0, "z": 0}
    var_map = {}
    for v in order:
        counters[v[0]] += 1
        var_map[v] = (v[0], counters[v[0]])
    poly_map = {old: Poly.var(new) for old, new in var_map.items()}

    def sub(p):
        return p.substitute(poly_map)

    rows = [r.mapped(sub) for r in mf.rows]
    rules = tuple(sorted(((var_map[v], d, sub(p))
                          for v, d, p in mf.base.rules),
                         key=lambda r: var_key(r[0])))
    if rows == list(mf.rows) and rules == mf.base.rules:
        return mf
    return KoszulMF(rows, QuotientRing(rules), mf.shift, mf.parity)
