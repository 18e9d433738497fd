"""
Graded homology of a factorization with zero potential.

A factorization with potential 0 is a 2-periodic complex; its homology
splits into a parity-0 and a parity-1 part, each with a graded (Poincare)
dimension recorded as a Laurent polynomial in q.

graded_homology reads each summand exactly as it is given and never
searches: auto_reduce is the one search, and its callers (the CLI, the
README example) reduce first.  A summand without rows is its base module,
placed by parity; a summand with rows is computed from its explicit
complex, degree by degree.  Either raises InfiniteDimension over an
infinite base, so an unreduced factorization over one (a glued loop, say)
must be reduced first.
"""

from collections import Counter

from .laurent import LaurentPoly
from .mf import MFSum
from .poly import DomainError, Poly, _Immutable, mono_degree
from .quotient import echelon


class NonzeroPotential(DomainError, ValueError):
    """Homology is only defined when the potential vanishes."""


class HomologyResult(_Immutable):
    """Graded dimensions of the two parity parts."""

    __slots__ = ("poincare0", "poincare1")

    def __init__(self, poincare0=None, poincare1=None):
        object.__setattr__(self, "poincare0", poincare0 or LaurentPoly())
        object.__setattr__(self, "poincare1", poincare1 or LaurentPoly())

    def __add__(self, other):
        return HomologyResult(self.poincare0 + other.poincare0,
                              self.poincare1 + other.poincare1)

    def __eq__(self, other):
        return (isinstance(other, HomologyResult)
                and self.poincare0 == other.poincare0
                and self.poincare1 == other.poincare1)

    def __str__(self):
        return "parity 0: %s\nparity 1: %s" % (self.poincare0, self.poincare1)

    __repr__ = __str__


def graded_homology(obj):
    """Homology of a KoszulMF or MFSum whose potential is zero."""
    summands = obj if isinstance(obj, MFSum) else MFSum([obj])
    total = HomologyResult()
    for mf in summands:
        if not mf.potential().is_zero():
            raise NonzeroPotential("potential is %s" % mf.potential())
        total = total + _piece_homology(mf)
    return total


def euler_characteristic(obj, signed=False):
    """Graded Euler characteristic; unsigned adds the two parities."""
    h = obj if isinstance(obj, HomologyResult) else graded_homology(obj)
    if signed:
        return h.poincare0 - h.poincare1
    return h.poincare0 + h.poincare1


def _piece_homology(mf):
    """A summand: its base module when it has no rows, else the explicit
    complex; InfiniteDimension over an infinite base either way."""
    if mf.rows:
        return _explicit_homology(mf)
    mf.base.require_bounded(mf.ambient_variables())
    dims = mf.base.graded_dimension(mf.shift)
    if mf.parity:
        return HomologyResult(LaurentPoly(), dims)
    return HomologyResult(dims, LaurentPoly())


def _explicit_homology(mf):
    base = mf.base
    monos = base.basis_monomials(mf.ambient_variables())
    exp = mf.to_explicit()
    basis0 = _module_basis(monos, exp.gens0)
    basis1 = _module_basis(monos, exp.gens1)
    out0, in1 = _graded_ranks(exp.d0, base, basis0, basis1)  # M0 -> M1
    out1, in0 = _graded_ranks(exp.d1, base, basis1, basis0)  # M1 -> M0
    # per degree: dimension - rank out of the module - rank into it
    dim0, dim1 = (LaurentPoly(Counter(deg for _, deg in basis))
                  for basis in (basis0, basis1))
    return HomologyResult(dim0 - out0 - in0, dim1 - out1 - in1)


def _module_basis(monos, gens):
    """Basis vectors ((mono, gen index), degree) of a free graded module."""
    return [((mono, j), mono_degree(mono) + gdeg)
            for j, gdeg in enumerate(gens) for mono in monos]


def _graded_ranks(mat, base, src_basis, tgt_basis):
    """Ranks of mat restricted to each source degree and to each target
    degree, as two series: the rank in degree t is the coefficient of q^t.

    mat has one degree (to_explicit's maps do), so the columns of one
    source degree are exactly those of one target degree: each group is
    ranked once, and its target degree is read from its first column.
    A basis vector's image is {target row: coefficient}, each an exact int
    or Fraction read from the normal forms' terms.
    """
    tgt_index = {key: i for i, (key, _) in enumerate(tgt_basis)}
    by_col = {}
    for (i, j), entry in mat.entries.items():
        by_col.setdefault(j, []).append((i, entry))
    by_src = {}
    for (mono, j), deg in src_basis:
        m = Poly({mono: 1})
        col = {}
        for i, entry in by_col.get(j, ()):
            for tmono, coeff in base.normal_form(entry * m).terms.items():
                row = tgt_index[(tmono, i)]
                col[row] = col.get(row, 0) + coeff
        col = {r: c for r, c in col.items() if c}
        if col:
            by_src.setdefault(deg, []).append(col)
    ranks = {deg: len(echelon(cols)) for deg, cols in by_src.items()}
    return LaurentPoly(ranks), LaurentPoly({
        tgt_basis[next(iter(by_src[deg][0]))][1]: rank
        for deg, rank in ranks.items()})
