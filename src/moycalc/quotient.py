"""
Quotient rings by triangular monic rewrite systems.

A rule is ``v^d -> p`` where v is a variable, d >= 1 and p is homogeneous
of the same weighted degree with deg_v(p) < d.  Each variable carries at
most one rule.  A monomial is reducible when some rule's v^d divides it,
which the ring tests with one add and one mask (``poly.staircase``); a
polynomial with no reducible monomial is normal and its normal form is the
polynomial itself, the same object.  Otherwise the normal monomials are
kept as they are and each reducible one is rewritten by memoized
per-monomial rewriting, so the memo holds only reducible monomials.
Since mixed-variable replacements can make naive rewriting
cycle (a monomial may reduce to a multiple of itself), a rewrite chain
that revisits a monomial resolves it exactly by linear algebra in its
graded piece, modulo the ideal generated by the rule polynomials v^d - p.
That linear algebra is one sparse eliminator, ``echelon``, shared with the
staircase-basis check below and with the homology ranks.
"""

from .laurent import LaurentPoly
from .poly import (UNIT, DomainError, Poly, _Immutable, mono_div,
                   mono_exponent, mono_mul, mono_power, mono_sort_key,
                   monomials_of_degree, qdiv, staircase, var_degree)

class TriangularityViolation(DomainError, ValueError):
    """A rule insertion or substitution would break the triangular shape."""


class InfiniteDimension(DomainError, ValueError):
    """The quotient is not a finite-dimensional vector space."""


class QuotientRing(_Immutable):
    """Polynomial ring modulo an ordered triangular system of monic rules."""

    __slots__ = ("rules", "_staircase", "_nf_cache", "_nf_stack",
                 "_pivot_cache")

    def __init__(self, rules=()):
        # rules: tuple of (var, power, replacement Poly), insertion order
        rules = tuple(rules)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_staircase",
                           staircase((v, d) for v, d, _ in rules))
        # per-instance memo tables; safe because the ring never changes
        object.__setattr__(self, "_nf_cache", {})
        object.__setattr__(self, "_nf_stack", set())
        object.__setattr__(self, "_pivot_cache", {})

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.rules == other.rules

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

    def _check_replacement(self, v, d, repl):
        name = "%s%d^%d" % (v[0], v[1], d)
        if not repl.is_homogeneous():
            raise TriangularityViolation(
                "replacement for %s not homogeneous" % name)
        if not repl.is_zero() and repl.degree() != d * var_degree(v):
            raise TriangularityViolation(
                "replacement for %s has wrong degree" % name)
        if repl.degree_in(v) >= d:
            raise TriangularityViolation(
                "replacement for %s contains its own leader" % name)

    def with_rule(self, v, d, repl):
        """Extend by the rule v^d -> repl (repl is normalized first).

        The normalized repl is reducible by none of the other rules, so
        only its own leader is checked: the rewrite path of normal_form
        ends in normal monomials, and _reduce_graded_piece returns zero on
        every pivot column, which is every reducible column under the
        staircase-basis property that _check_acyclic guards.
        """
        if self.rule_for(v) is not None:
            raise TriangularityViolation("variable %s%d already has a rule" % v)
        repl = self.normal_form(repl)
        self._check_replacement(v, d, repl)
        new_rules = self.rules + ((v, d, repl),)
        for w, dw, _ in self.rules_reducible_by(v, d):
            raise TriangularityViolation(
                "rule %s%d^%d reducible by new rule on %s%d"
                % (w[0], w[1], dw, v[0], v[1]))
        _check_acyclic(new_rules)
        return QuotientRing(new_rules)

    def rules_reducible_by(self, v, d):
        """The rules whose replacement has degree >= d in v: a new rule
        v^d -> ... would make them reducible."""
        return [rule for rule in self.rules
                if v in rule[2].variables() and rule[2].degree_in(v) >= d]

    def substitute(self, v, repl):
        """Eliminate v entirely by substituting v -> repl in every rule;
        the ring itself when no replacement contains v."""
        if self.rule_for(v) is not None:
            raise TriangularityViolation("cannot eliminate a leader variable")
        if not any(p.degree_in(v) for _, _, p in self.rules):
            return self
        out = QuotientRing()
        for w, d, p in self.rules:
            p2 = p.substitute({v: repl})
            out = out.with_rule(w, d, p2)
        return out

    def merge(self, other):
        """Union of two rule systems: each of other's rules is added by
        with_rule, so the union is in canonical form; a shared leader must
        carry equal rules on both sides.  self when other has no rules."""
        out = self
        for v, d, p in other.rules:
            mine = self.rule_for(v)
            if mine is None:
                out = out.with_rule(v, d, p)
            elif mine != (d, p):
                raise TriangularityViolation("conflicting rules on %s%d" % v)
        return out

    # -- normal forms ----------------------------------------------------

    def normal_form(self, p):
        """The normal form of p; p itself when it is normal already."""
        if not self.rules:
            return p
        offset, high = self._staircase
        terms = p.terms
        for mono in terms:
            if (mono + offset) & high:
                break
        else:
            return p
        # accumulate in one dict: summing Polys would copy it once per term
        acc = {}
        for mono, coeff in terms.items():
            if (mono + offset) & high:
                for m, c in self._mono_normal_form(mono).terms.items():
                    acc[m] = acc.get(m, 0) + c * coeff
            else:
                acc[mono] = acc.get(mono, 0) + coeff
        return Poly(acc)

    def _mono_normal_form(self, mono):
        """The normal form of a reducible monomial, memoized."""
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        if mono in self._nf_stack:
            # the rewrite chain returned to this monomial: resolve exactly
            result = self._reduce_graded_piece(Poly({mono: 1}))
        else:
            v, d, repl = next(rule for rule in self.rules
                              if mono_exponent(mono, rule[0]) >= rule[1])
            rest = mono_div(mono, mono_power(v, d))
            self._nf_stack.add(mono)
            try:
                result = self.normal_form(
                    Poly({mono_mul(rest, m): c for m, c in repl.terms.items()}))
            finally:
                self._nf_stack.discard(mono)
        self._nf_cache[mono] = result
        return result

    def _reduce_graded_piece(self, p):
        """Normal form of a homogeneous p by linear algebra in its degree."""
        degree = p.degree()
        # only variables reachable from p through rule replacements matter;
        # rules on other leaders can never fire while reducing p
        varset = _reach(p.variables(), self.rules)
        variables = sorted(varset)
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

    def require_bounded(self, variables):
        """Raise InfiniteDimension unless every variable leads a rule."""
        for v in sorted(variables):
            if self.rule_for(v) is None:
                raise InfiniteDimension("no bounding rule for %s%d" % v)

    def graded_dimension(self, shift=0):
        """Graded dimension of the monomial basis, as a LaurentPoly in q."""
        out = LaurentPoly({shift: 1})
        for v, d, _ in self.rules:
            w = var_degree(v)
            out = out * LaurentPoly({w * k: 1 for k in range(d)})
        return out

    def basis_monomials(self, ambient=()):
        """All monomials below the staircase; ambient vars must be bounded."""
        self.require_bounded(ambient)
        # the product of the rules' ranges, the last rule varying fastest
        out = [UNIT]
        for v, d, _ in self.rules:
            out = [mono_mul(m, mono_power(v, e))
                   for m in out for e in range(d)]
        return out


def _check_acyclic(rules):
    """Guard the staircase-basis assumption of the rewrite system, whose
    last rule, on leader v, is new.

    When leader dependencies are acyclic (no replacement reaches back to
    its leader through other leaders), the quotient is an iterated monic
    extension and the monomials below the staircase are a module basis,
    so normal forms are canonical.  A rule may mention its own leader
    below its power; that is just monicity.

    Cyclic dependencies can break that basis property silently.  A leader
    on a cycle is checked on its closure (cyclic_closure): a closure of
    leaders only is a finite-dimensional closed subsystem, whose basis
    property is checked degree by degree by linear algebra.  A closure
    with any other variable is rejected.

    Only the new leader v is checked.  That reaches the same verdict and
    message as checking every leader, because the rules before v's passed
    this check:
      1. A new cycle must pass through v: v's rule adds the only new
         edges, those from v to its replacement's variables.
      2. Every leader on such a cycle has the same closure as v (each
         reaches the other, so both reach the same variables), so it gets
         the same verdict and the same message.
      3. An accepted cyclic closure holds only leaders, so it cannot
         contain v, which led no rule; v's rule leaves it as it was.
    """
    v, _, repl = rules[-1]
    closure = cyclic_closure(rules, v, repl.variables())
    if closure is not None:
        by_leader = {rule[0]: rule for rule in rules}
        _verify_staircase([by_leader[w] for w in sorted(closure)])


def cyclic_closure(rules, v, variables):
    """The closure of a replacement for v when it reaches back to v, else
    None; raises TriangularityViolation when that closure holds a
    non-leader other than v.

    variables are the replacement's (or those of an entry monic in v);
    the closure is what those other than v reach through the rules'
    replacements.  rules need not hold v's own rule: reaching v adds only
    the replacement's variables, which the closure holds already.
    """
    closure = frozenset(_reach(variables - {v}, rules))
    if v not in closure:
        return None
    unbounded = closure - {w for w, _, _ in rules} - {v}
    if unbounded:
        raise TriangularityViolation(
            "cyclic rules through unbounded variable %s%d" % min(unbounded))
    return closure


def _reach(variables, rules):
    """The variables closed under the replacements of the rules on them."""
    replacement = {v: p for v, _, p in rules}
    reach = set(variables)
    queue = list(reach)
    while queue:
        w = queue.pop()
        if w in replacement:
            new = replacement[w].variables() - reach
            reach |= new
            queue.extend(new)
    return reach


def _verify_staircase(rules):
    """Check, degree by degree, that the monomials below the staircase of
    a closed rule system are a basis of the quotient."""
    leaders = {v: d for v, d, _ in rules}
    variables = sorted(leaders)
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

    Columns put the reducible monomials (on or above the staircase) first,
    each group in decreasing monomial order; returns (columns, number of
    reducible monomials, pivots).
    """
    offset, high = staircase((v, d) for v, d, _ in rules)
    reducible, rest = [], []
    for m in sorted(monomials_of_degree(variables, degree),
                    key=mono_sort_key, reverse=True):
        if (m + offset) & high:
            reducible.append(m)
        else:
            rest.append(m)
    columns = reducible + rest
    col_index = {m: i for i, m in enumerate(columns)}
    rows = []
    for v, d, repl in rules:
        g = Poly.var(v, d) - repl
        for mult in monomials_of_degree(variables, degree - g.degree()):
            prod = Poly({mult: 1}) * g
            rows.append({col_index[m]: c for m, c in prod.terms.items()})
    return columns, len(reducible), echelon(rows)


def echelon(vectors):
    """Row echelon form of sparse {column: nonzero coefficient} vectors,
    whose entries are exact: ints or Fractions, never floats.

    Returns {lead: vector scaled to lead 1}, where a vector's lead is its
    smallest nonzero column; the number of pivots is the rank.  The scaling
    divides with ``qdiv``, so pivot entries are in poly's coefficient form.
    """
    pivots = {}
    for vec in vectors:
        vec = reduce_vector(vec, pivots)
        if vec:
            lead = min(vec)
            inv = vec[lead]
            pivots[lead] = {j: qdiv(c, inv) for j, c in vec.items()}
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

