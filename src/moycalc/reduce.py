"""
Simplification of Koszul factorizations.

The workhorse is variable exclusion: a row whose b-entry (or, after the
translation trick, whose a-entry) is monic in a variable v absent from
the potential can be deleted, passing to the quotient by that entry.
Linear entries (power 1) are eliminated by outright substitution, so no
rule lingers in the base; higher powers become quotient-ring rules.
An entry c*v^d + (lower in v) gives the replacement v^d - entry/c
(Poly.monic_replacement), and Poly.divided divides it by c term by term:
a coefficient that c divides gives an int, and only the others a
Fraction.
A row with a unit entry stays: K(1; b) is contractible, so the whole
summand is zero, and its homology reads as zero.

Only the base ring judges whether it can take a rule: with_rule, or
substitute for d = 1, refuses one it cannot take, such as a power rule
that closes a cycle through an unbounded variable, and the search skips
that candidate.

auto_reduce drives exclusions to a fixpoint and splits the base module
along a rule where none is left.  Exclusions and splits keep the
potential, and a summand without rows has potential 0, so under a nonzero
potential the search just takes the first feasible (row, variable, side).
Under a zero potential a greedy choice can dead-end, so the search
backtracks depth-first to the first branch it accepts, one that reaches
zero rows everywhere.  Its budget is one constant on the search object,
_Search.BRANCHES exclusions: once they are spent, a node that has tried
a branch returns its first one, and counts a cut-off in the trace's
cutoffs, which the CLI names in the error where homology cannot be read.
Under a zero potential the candidates go sparsest entry first: by the
number of terms of the entry excluded, then by its power, ties in (row,
variable, side) order.  In either order the monic tables that give the
powers are built one group of entries at a time (a sparsity group, or a
row), and only as far as the search reads, so a node that takes an early
candidate leaves the later groups untabled.
Exclusions may come in any order (the exclusion lemma), and a sparse
entry leaves a small substitution or rule behind;
in this order every closed-webs item of the benchmark reaches zero rows
within the budget, where 28 of 84 did not in (row, variable, side)
order.  A nonzero potential keeps (row, variable, side) order: sorted
there, the first feasible candidates leave about three times as many
rows on the open-random items.
The d copies of a split are one factorization shifted by k*deg v, so
the search builds and reduces copy 0 only, along the first leader that
can split: copies 1..d-1 take copy 0's steps and its summands with each
shift raised by k*deg v, and each of them is charged copy 0's spend,
so the budget runs out where a search of every copy would.  This
is exact: the copies have the same rows, base and parity, and the search
only ever adds to a shift (a side-"a" exclusion adds internal_shift, and
a split adds k*deg v).
A split step still lists every copy's steps, so replay re-runs each copy
and checks the sharing.

A trace is a flat list of (kind, info) steps: exclude (row, var, side,
power) and split (var, power, sizes), where a split is followed by its
copies' steps, sizes[k] of them for copy k (the split tree in pre-order).
The trace also counts the search's cut-offs, which replay ignores.
"""

import itertools
from operator import itemgetter

from .poly import (DomainError, mono_sort_key, mono_variables, qdiv,
                   var_degree)
from .quotient import QuotientRing, TriangularityViolation
from .mf import KoszulMF, MFSum


class VariableInPotential(DomainError, ValueError):
    pass


class NotMonicInVariable(DomainError, ValueError):
    pass


class ResidualVariable(DomainError, ValueError):
    pass


class ReductionTrace:
    """The steps of one reduction, laid out as the module docstring says,
    and the search's cut-offs (auto_reduce), which replay ignores."""

    def __init__(self, steps=()):
        self.steps = list(steps)
        self.cutoffs = 0

    def __len__(self):
        return len(self.steps)


def scale_row(mf, i, c):
    """Lemma-equiv rescaling: row i becomes (c*a; b/c)."""
    rows = list(mf.rows)
    rows[i] = mf.row(i).scaled(c)
    return KoszulMF(rows, mf.base, mf.shift, mf.parity)


def exclude_variable(mf, i, v, side, potential_vars=None):
    """Remove row i = (a; b), quotienting the base by its entry monic in v.

    side, "a" or "b", names the entry.  Side "b" uses b = c*v^d + (lower
    in v): v^d becomes v^d - b/c, by substitution when d = 1 and as a rule
    otherwise.  Side "a" uses a; by K(a; b) = K(-b; -a)<1>{(deg b - deg a)/2}
    the result then has shift + (deg b - deg a)/2 and parity + 1.
    potential_vars, the variables of mf's potential, is computed when not
    given; exclusion leaves it unchanged, so a search passes it down.

    The new base ring is the only judge of the rule (module docstring):
    a rule it cannot take raises TriangularityViolation.
    """
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b', not %r" % (side,))
    row = mf.row(i)
    if potential_vars is None:
        potential_vars = mf.potential().variables()
    entry = row.b if side == "b" else row.a
    monic = entry.monic_replacement(v)
    if monic is None:
        raise NotMonicInVariable("entry %s is not monic in %s%d" % (entry, *v))
    if v in potential_vars:
        raise VariableInPotential("potential contains %s%d" % v)

    d, repl = monic
    rows = [r for k, r in enumerate(mf.rows) if k != i]
    if d == 1:
        base = mf.base.substitute(v, repl)
        rows = [r.mapped(lambda p: p.substitute({v: repl})) for r in rows]
    else:
        base = mf.base.with_rule(v, d, repl)
    if side == "a":
        return KoszulMF(rows, base, mf.shift + row.internal_shift,
                        mf.parity + 1)
    return KoszulMF(rows, base, mf.shift, mf.parity)


def split_free_module(mf, v):
    """Split along the rule basis 1, v, ..., v^{d-1} of the base module;
    the copies share mf's rows."""
    rule = mf.base.rule_for(v)
    if rule is None:
        raise ValueError("no rule with leader %s%d" % v)
    d, _ = rule
    residual = _residual(mf, v)
    if residual:
        raise ResidualVariable(residual)
    copy = _first_copy(mf, v)
    return MFSum([copy] + [copy.shifted(k * var_degree(v))
                           for k in range(1, d)])


def _first_copy(mf, v):
    """Copy 0 of the split along v's rule: mf over the base without it."""
    base = QuotientRing([r for r in mf.base.rules if r[0] != v])
    return KoszulMF(mf.rows, base, mf.shift, mf.parity)


def _residual(mf, v):
    """Where v still occurs outside its own rule, as a message (a row, in
    normal form, or another rule); None where v is free to split along."""
    for i, row in enumerate(mf.rows):
        if row.a.degree_in(v) or row.b.degree_in(v):
            return "row %d still contains %s%d" % (i, *v)
    for w, _, p in mf.base.rules:
        if w != v and p.degree_in(v):
            return "rule on %s%d still contains %s%d" % (w[0], w[1], *v)
    return None


def _exclusion_candidates(mf, potential_vars, zero=False):
    """Feasible (row, var, side, power) in the order the search tries
    them, generated lazily: (row, var, side) order, or under a zero
    potential (zero) sparsest entry first, then lowest power, ties in
    (row, var, side) order (module docstring).  Both orders group the
    entries, by their number of terms under a zero potential and by row
    otherwise, which needs no monic table, and read the groups in key
    order: a group's tables are built, and its candidates sorted, only
    when the caller reads past every earlier group.  A power is checked
    only when the caller reads it, so a search that takes an early
    candidate never checks the later ones.  The order does not depend on
    how far the caller reads.

    A rule's leader is never a candidate: the base cannot take a second
    rule on it, nor substitute it away.  Nor is a power d >= 2 of v that
    would make a rule reducible (QuotientRing.rules_reducible_by):
    with_rule always refuses it.
    """
    leaders = {w for w, _, _ in mf.base.rules}
    groups = {}
    for i, row in enumerate(mf.rows):
        for rank, entry in enumerate((row.b, row.a)):
            groups.setdefault(len(entry.terms) if zero else i, []).append(
                (i, rank, entry))
    for key in sorted(groups):
        for _, i, v, rank, d in sorted(
                (d if zero else 0, i, v, rank, d)
                for i, rank, entry in groups[key]
                for v, (d, _) in entry.monic_variables().items()
                if v not in potential_vars and v not in leaders):
            if d < 2 or not mf.base.rules_reducible_by(v, d):
                yield i, v, "ba"[rank], d


def _splittable_variables(mf):
    return (v for v in sorted(w for w, _, _ in mf.base.rules)
            if mf.rows and not _residual(mf, v))


def auto_reduce(mf):
    """Reduce to a fixpoint; returns (MFSum, ReductionTrace).  One _Search
    does it, on a budget of _Search.BRANCHES exclusions, where copies
    1..d-1 of a split are each charged copy 0's spend; trace.cutoffs
    counts the nodes where the budget ran out before a branch was
    accepted, and the CLI names a cut-off in its error."""
    search = _Search(mf.potential())
    summands, search.trace.steps = search.reduce(mf)
    return MFSum(summands), search.trace


class _Search:
    """The exclusion search of the module docstring under one potential:
    its variables and whether it is zero, which no exclusion or split
    changes, the branches left of its budget, and the trace it returns,
    whose cutoffs count the nodes where the budget ran out before a
    branch was accepted."""

    BRANCHES = 16

    def __init__(self, potential):
        self.potential_vars = potential.variables()
        self.zero = potential.is_zero()
        self.branches, self.trace = self.BRANCHES, ReductionTrace()

    def accepts(self, summands):
        """Does a branch that ends in summands finish the search?"""
        return not self.zero or all(not s.rows for s in summands)

    def reduce(self, mf):
        """(summands, steps) of mf."""
        best = None
        for (i, v, side, d) in _exclusion_candidates(mf, self.potential_vars,
                                                     self.zero):
            try:
                nxt = exclude_variable(mf, i, v, side, self.potential_vars)
            except TriangularityViolation:
                # a candidate is monic in v and v is outside the potential,
                # so only the new base ring can refuse it
                continue
            # under a nonzero potential the first branch is accepted, so
            # the budget never ends that search
            self.branches -= 1
            summands, sub = self.reduce(nxt)
            step = ("exclude", {"row": i, "var": v, "side": side, "power": d})
            branch = summands, [step] + sub
            if self.accepts(summands):
                return branch
            best = best or branch
            if self.branches <= 0:
                # checked here, not before the next candidate, so that the
                # search builds no exclusion it will not take
                self.trace.cutoffs += 1
                break
        if best is not None:
            return best

        for v in _splittable_variables(mf):
            d, _ = mf.base.rule_for(v)
            left = self.branches
            summands, sub = self.reduce(_first_copy(mf, v))
            # the copies share copy 0's search (module docstring)
            self.branches -= (d - 1) * (left - self.branches)
            split = ("split", {"var": v, "power": d, "sizes": (len(sub),) * d})
            return (summands + [s.shifted(k * var_degree(v))
                                for k in range(1, d) for s in summands],
                    [split] + sub * d)

        return [mf], []


def replay(mf, trace):
    """Re-apply a recorded trace to the input factorization."""
    return MFSum(_replay(mf, iter(trace.steps)))


def _replay(cur, steps):
    for kind, info in steps:
        if kind == "exclude":
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
            tuple((v, d, p.sort_key()) for v, d, p in mf.base.rules))


def _row_key(r):
    return r.b.sort_key(), r.a.sort_key(), r.deg_a, r.deg_b


def _normalize_rows(mf):
    rows = []
    for row in mf.rows:
        if not row.b.is_zero():
            _, lc = row.b.leading()
            row = row.scaled(lc)
        elif not row.a.is_zero():
            _, lc = row.a.leading()
            row = row.scaled(qdiv(1, lc))
        rows.append(row)
    rows.sort(key=_row_key)
    return KoszulMF(rows, mf.base, mf.shift, mf.parity)


def _relabel(mf):
    """Rename variables of each kind by first appearance in the sorted
    rows (b before a, monomials in decreasing order), then in the rules."""
    order = []
    seen = set()

    def visit(p):
        for mono in sorted(p.terms, key=mono_sort_key, reverse=True):
            for v in mono_variables(mono):
                if v not in seen:
                    seen.add(v)
                    order.append(v)

    for row in mf.rows:
        visit(row.b)
        visit(row.a)
    for v, _, p in sorted(mf.base.rules, key=itemgetter(0)):
        if v not in seen:
            seen.add(v)
            order.append(v)
        visit(p)

    counters = {"x": 0, "y": 0, "z": 0}
    var_map = {}
    for v in order:
        counters[v[0]] += 1
        var_map[v] = (v[0], counters[v[0]])

    def sub(p):
        return p.renamed(var_map)

    rows = [r.mapped(sub) for r in mf.rows]
    rules = tuple(sorted(((var_map[v], d, sub(p))
                          for v, d, p in mf.base.rules), key=itemgetter(0)))
    if rows == list(mf.rows) and rules == mf.base.rules:
        return mf
    return KoszulMF(rows, QuotientRing(rules), mf.shift, mf.parity)
