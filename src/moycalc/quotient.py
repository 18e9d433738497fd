"""
Quotient rings by triangular monic rewrite systems.

A rule is ``v^d -> p`` where v is a variable, d >= 1 and p is homogeneous
of the same weighted degree with deg_v(p) < d.  Each variable carries at
most one rule.  Normal forms are computed by memoized per-monomial
rewriting; since mixed-variable replacements can make naive rewriting
cycle (a monomial may reduce to a multiple of itself), a rewrite chain
that revisits a monomial resolves it exactly by linear algebra in its
graded piece, modulo the ideal generated by the rule polynomials v^d - p.
That linear algebra is one sparse eliminator, ``echelon``, shared with the
staircase-basis check below and with the homology ranks.
"""

from fractions import Fraction
from itertools import product

from .poly import Poly, var_degree, var_key

class TriangularityViolation(ValueError):
    """A rule insertion or substitution would break the triangular shape."""


class InfiniteDimension(ValueError):
    """The quotient is not a finite-dimensional vector space."""


class QuotientRing:
    """Polynomial ring modulo an ordered triangular system of monic rules."""

    __slots__ = ("rules", "_nf_cache", "_nf_stack", "_pivot_cache")

    def __init__(self, rules=()):
        # rules: tuple of (var, power, replacement Poly), insertion order
        object.__setattr__(self, "rules", tuple(rules))
        # per-instance memo tables; safe because the ring never changes
        object.__setattr__(self, "_nf_cache", {})
        object.__setattr__(self, "_nf_stack", set())
        object.__setattr__(self, "_pivot_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRing is immutable")

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.rules == other.rules

    def __hash__(self):
        return hash(self.rules)

    def __str__(self):
        if not self.rules:
            return "Q[...]"
        gens = ", ".join("%s%d^%d - (%s)" % (v[0], v[1], d, p)
                         for v, d, p in self.rules)
        return "Q[...]/<%s>" % gens

    __repr__ = __str__

    def rule_for(self, v):
        for w, d, p in self.rules:
            if w == v:
                return (d, p)
        return None

    # -- construction --------------------------------------------------

    def _check_replacement(self, v, d, repl, against):
        if not repl.is_homogeneous():
            raise TriangularityViolation("replacement for %s^%d not homogeneous"
                                         % (v, d))
        if not repl.is_zero() and repl.degree() != d * var_degree(v):
            raise TriangularityViolation(
                "replacement for %s^%d has wrong degree" % (v, d))
        if repl.degree_in(v) >= d:
            raise TriangularityViolation(
                "replacement for %s^%d contains its own leader" % (v, d))
        for w, dw, _ in against:
            if w != v and repl.degree_in(w) >= dw:
                raise TriangularityViolation(
                    "replacement for %s^%d reducible by rule on %s" % (v, d, w))

    def with_rule(self, v, d, repl):
        """Extend by the rule v^d -> repl (repl is normalized first)."""
        if self.rule_for(v) is not None:
            raise TriangularityViolation("variable %s%d already has a rule" % v)
        repl = self.normal_form(repl)
        new_rules = self.rules + ((v, d, repl),)
        self._check_replacement(v, d, repl, new_rules)
        # the new rule must not make an existing replacement reducible
        for w, dw, pw in self.rules:
            if pw.degree_in(v) >= d:
                raise TriangularityViolation(
                    "rule %s%d^%d reducible by new rule on %s%d"
                    % (w[0], w[1], dw, v[0], v[1]))
        _check_acyclic(new_rules)
        return QuotientRing(new_rules)

    def substitute(self, v, repl):
        """Eliminate v entirely by substituting v -> repl in every rule."""
        if self.rule_for(v) is not None:
            raise TriangularityViolation("cannot eliminate a leader variable")
        out = QuotientRing()
        for w, d, p in self.rules:
            p2 = p.substitute({v: repl})
            out = out.with_rule(w, d, p2)
        return out

    def merge(self, other):
        """Union of two rule systems; shared leaders must carry equal rules."""
        rules = list(self.rules)
        mine = {v: (d, p) for v, d, p in self.rules}
        for v, d, p in other.rules:
            if v in mine:
                if mine[v] != (d, p):
                    raise TriangularityViolation(
                        "conflicting rules on %s%d" % v)
            else:
                rules.append((v, d, p))
        _check_acyclic(rules)
        return QuotientRing(rules)

    # -- normal forms ----------------------------------------------------

    def normal_form(self, p):
        if not self.rules or p.is_zero():
            return p
        out = Poly()
        for mono, coeff in p.terms.items():
            out = out + self._mono_normal_form(mono) * coeff
        return out

    def _mono_normal_form(self, mono):
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        target = None
        mdict = dict(mono)
        for v, d, repl in self.rules:
            if mdict.get(v, 0) >= d:
                target = (v, d, repl)
                break
        if target is None:
            result = Poly({mono: Fraction(1)})
        elif mono in self._nf_stack:
            # the rewrite chain returned to this monomial: resolve exactly
            result = self._reduce_graded_piece(Poly({mono: Fraction(1)}))
        else:
            self._nf_stack.add(mono)
            try:
                v, d, repl = target
                mdict[v] -= d
                if not mdict[v]:
                    del mdict[v]
                rest = tuple(sorted(mdict.items(),
                                    key=lambda it: var_key(it[0])))
                step = Poly({rest: Fraction(1)}) * repl
                result = Poly()
                for m2, c2 in step.terms.items():
                    result = result + self._mono_normal_form(m2) * c2
            finally:
                self._nf_stack.discard(mono)
        self._nf_cache[mono] = result
        return result

    def _reduce_graded_piece(self, p):
        """Normal form of a homogeneous p by linear algebra in its degree."""
        degree = p.degree()
        # only variables reachable from p through rule replacements matter;
        # rules on other leaders can never fire while reducing p
        varset = set(p.variables())
        changed = True
        while changed:
            changed = False
            for v, _, repl in self.rules:
                if v in varset and not repl.variables() <= varset:
                    varset |= repl.variables()
                    changed = True
        variables = sorted(varset, key=var_key)
        cache_key = (tuple(variables), degree)
        cached = self._pivot_cache.get(cache_key)
        if cached is None:
            rules = [rule for rule in self.rules if rule[0] in varset]
            cached = _relation_echelon(rules, variables, degree)
            self._pivot_cache[cache_key] = cached
        columns, _, pivots = cached
        vec = reduce_vector({columns.index(mono): coeff
                             for mono, coeff in p.terms.items()}, pivots)
        return Poly({columns[j]: vec[j] for j in sorted(vec)})

    # -- dimension --------------------------------------------------------

    def graded_dimension(self, shift=0):
        """Graded dimension of the monomial basis, as a LaurentPoly in q."""
        from .laurent import LaurentPoly
        out = LaurentPoly({shift: 1})
        for v, d, _ in self.rules:
            w = var_degree(v)
            out = out * LaurentPoly({w * k: 1 for k in range(d)})
        return out

    def basis_monomials(self, ambient=()):
        """All monomials below the staircase; ambient vars must be bounded."""
        for v in ambient:
            if self.rule_for(v) is None:
                raise InfiniteDimension("no bounding rule for %s%d" % v)
        vs = [(v, d) for v, d, _ in self.rules]
        out = []
        for exps in product(*[range(d) for _, d in vs]):
            mono = tuple(sorted(((v, e) for (v, _), e in zip(vs, exps) if e),
                                key=lambda it: var_key(it[0])))
            out.append(mono)
        return out


def _check_acyclic(rules):
    """Guard the staircase-basis assumption of the rewrite system.

    When leader dependencies are acyclic (v's replacement never reaches
    back to v through other leaders), the quotient is an iterated monic
    extension and the monomials below the staircase are a module basis,
    so normal forms are canonical.  A rule may mention its own leader
    below its power; that is just monicity.

    Cyclic dependencies can break that basis property silently.  A cycle
    whose rules only involve leader variables spans a finite-dimensional
    closed subsystem, and the basis property there is decidable: it is
    checked degree by degree by linear algebra (and the result memoized).
    Any other cycle is rejected.
    """
    leaders = {v: d for v, d, _ in rules}
    graph = {v: (p.variables() & set(leaders)) - {v} for v, _, p in rules}

    # leaders lying on a directed cycle, by depth-first search
    cyclic = set()
    done = set()
    for start in graph:
        if start in done:
            continue
        stack = [(start, iter(graph[start]))]
        path = [start]
        on_path = {start}
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in on_path:
                    cyclic.update(path[path.index(nxt):])
                elif nxt not in done:
                    stack.append((nxt, iter(graph[nxt])))
                    path.append(nxt)
                    on_path.add(nxt)
                    break
            else:
                stack.pop()
                path.pop()
                on_path.discard(node)
                done.add(node)
    if not cyclic:
        return

    by_leader = {v: (v, d, p) for v, d, p in rules}
    remaining = set(cyclic)
    while remaining:
        # close the component under replacement variables
        comp = {remaining.pop()}
        queue = list(comp)
        while queue:
            v = queue.pop()
            for w in by_leader[v][2].variables():
                if w == v:
                    continue
                if w not in leaders:
                    raise TriangularityViolation(
                        "cyclic rules through unbounded variable %s%d"
                        % w)
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        remaining -= comp
        _verify_staircase([by_leader[v] for v in sorted(comp, key=var_key)])


def _verify_staircase(rules):
    """Check, degree by degree, that the monomials below the staircase of
    a closed rule system are a basis of the quotient."""
    leaders = {v: d for v, d, _ in rules}
    variables = sorted(leaders, key=var_key)
    socle = sum(var_degree(v) * (d - 1) for v, d in leaders.items())
    top = socle + max(var_degree(v) for v in variables)
    for degree in range(1, top + 1):
        _, reducible, pivots = _relation_echelon(rules, variables, degree)
        if len(pivots) != reducible or any(j >= reducible for j in pivots):
            raise TriangularityViolation(
                "cyclic rules on %s break the staircase basis in degree %d"
                % (", ".join("%s%d" % v for v in variables), degree))


def _relation_echelon(rules, variables, degree):
    """Echelon form of the multiples of the rule polynomials v^d - p that
    lie in one degree, over the monomials of that degree in ``variables``.

    Columns put the reducible monomials (on or above the staircase) first;
    returns (columns, number of reducible monomials, pivots).
    """
    leaders = {v: d for v, d, _ in rules}

    def is_reducible(mono):
        return any(dict(mono).get(v, 0) >= d for v, d in leaders.items())

    columns = sorted(_monomials_of_degree(variables, degree),
                     key=lambda m: (not is_reducible(m),
                                    [-k for k in _flat_key(m)]))
    col_index = {m: i for i, m in enumerate(columns)}
    rows = []
    for v, d, repl in rules:
        g = Poly.var(v, d) - repl
        for mult in _monomials_of_degree(variables, degree - g.degree()):
            prod = Poly({mult: Fraction(1)}) * g
            rows.append({col_index[m]: c for m, c in prod.terms.items()})
    reducible = sum(1 for m in columns if is_reducible(m))
    return columns, reducible, echelon(rows)


def echelon(vectors):
    """Row echelon form of sparse {column: nonzero Fraction} vectors.

    Returns {lead: vector scaled to lead 1}, where a vector's lead is its
    smallest nonzero column; the number of pivots is the rank.
    """
    pivots = {}
    for vec in vectors:
        vec = reduce_vector(vec, pivots)
        if vec:
            lead = min(vec)
            inv = vec[lead]
            pivots[lead] = {j: c / inv for j, c in vec.items()}
    return pivots


def reduce_vector(vec, pivots):
    """vec minus multiples of the pivots: a new vector that is zero in
    every pivot column.  Pivots are applied in increasing lead order, each
    touching only columns beyond its lead, so none undoes an earlier one.
    """
    vec = dict(vec)
    for lead in sorted(pivots):
        c = vec.get(lead)
        if not c:
            continue
        for j, pc in pivots[lead].items():
            nv = vec.get(j, 0) - c * pc
            if nv:
                vec[j] = nv
            else:
                del vec[j]
    return vec


def _flat_key(mono):
    out = []
    for v, e in mono:
        out.extend((-var_key(v)[0], -var_key(v)[1], e))
    return out


def _monomials_of_degree(variables, degree):
    """All monomials in the given variables with weighted degree exactly d."""
    if degree < 0:
        return []
    out = []

    def rec(i, remaining, acc):
        if i == len(variables):
            if remaining == 0:
                out.append(tuple(acc))
            return
        v = variables[i]
        w = var_degree(v)
        if i == len(variables) - 1:
            if remaining % w == 0:
                e = remaining // w
                rec(i + 1, 0, acc + [(v, e)] if e else acc)
            return
        e = 0
        while e * w <= remaining:
            rec(i + 1, remaining - e * w, acc + [(v, e)] if e else acc)
            e += 1

    rec(0, degree, [])
    return out
