"""
Graded homology of a factorization with zero potential.

A factorization with potential 0 is a 2-periodic complex; its homology
splits into a parity-0 and a parity-1 part, each with a graded (Poincare)
dimension recorded as a Laurent polynomial in q.

graded_homology reduces each summand with rows once (auto_reduce) and
reads every resulting piece: a piece without rows is its base module,
placed by parity; a piece with rows is computed from its explicit complex,
degree by degree.
"""

from collections import Counter

from .laurent import LaurentPoly
from .mf import MFSum
from .poly import Poly, mono_degree
from .quotient import echelon
from .reduce import auto_reduce


class NonzeroPotential(ValueError):
    """Homology is only defined when the potential vanishes."""


class HomologyResult:
    """Graded dimensions of the two parity parts."""

    __slots__ = ("poincare0", "poincare1")

    def __init__(self, poincare0=None, poincare1=None):
        object.__setattr__(self, "poincare0", poincare0 or LaurentPoly())
        object.__setattr__(self, "poincare1", poincare1 or LaurentPoly())

    def __setattr__(self, name, value):
        raise AttributeError("HomologyResult is immutable")

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
        total = total + _summand_homology(mf)
    return total


def euler_characteristic(obj, signed=False):
    """Graded Euler characteristic; unsigned adds the two parities."""
    h = obj if isinstance(obj, HomologyResult) else graded_homology(obj)
    if signed:
        return h.poincare0 - h.poincare1
    return h.poincare0 + h.poincare1


def _summand_homology(mf):
    if not mf.potential().is_zero():
        raise NonzeroPotential("potential is %s" % mf.potential())
    pieces = auto_reduce(mf)[0] if mf.rows else [mf]
    total = HomologyResult()
    for piece in pieces:
        total = total + _piece_homology(piece)
    return total


def _piece_homology(mf):
    """A reduced piece: its base module when no row is left, else the
    explicit complex; InfiniteDimension over an infinite base either way."""
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
    out = []
    for j, gdeg in enumerate(gens):
        for mono in monos:
            out.append(((mono, j), mono_degree(mono) + gdeg))
    return out


def _graded_ranks(mat, base, src_basis, tgt_basis):
    """Ranks of mat restricted to each source degree and to each target
    degree, as two series: the rank in degree t is the coefficient of q^t.

    A basis vector's image is {target row: coefficient}, each an exact int
    or Fraction read from the normal forms' terms.
    """
    tgt_index = {key: i for i, (key, _) in enumerate(tgt_basis)}
    by_col = {}
    for (i, j), entry in mat.entries.items():
        by_col.setdefault(j, []).append((i, entry))
    by_src, by_tgt = {}, {}
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
            by_tgt.setdefault(tgt_basis[next(iter(col))][1], []).append(col)
    return tuple(LaurentPoly({t: len(echelon(cols))
                              for t, cols in group.items()})
                 for group in (by_src, by_tgt))

