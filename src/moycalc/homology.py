"""
Graded homology of a factorization with zero potential.

A factorization with potential 0 is a 2-periodic complex; its homology
splits into a parity-0 and a parity-1 part, each with a graded (Poincare)
dimension recorded as a Laurent polynomial in q.
"""

from fractions import Fraction

from .laurent import LaurentPoly
from .mf import KoszulMF, MFSum
from .poly import Poly, mono_degree
from .quotient import InfiniteDimension, echelon


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

    def total_dimension(self):
        return (self.poincare0.evaluate_at_one()
                + self.poincare1.evaluate_at_one())

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
    mf = mf.normalized_rows()
    if not mf.potential().is_zero():
        raise NonzeroPotential("potential is %s" % mf.potential())
    if not mf.rows:
        dims = mf.base.graded_dimension(mf.shift)
        if mf.parity:
            return HomologyResult(LaurentPoly(), dims)
        return HomologyResult(dims, LaurentPoly())
    try:
        return _explicit_homology(mf)
    except InfiniteDimension:
        # the underlying module is infinite rank as given; simplify first
        from .reduce import auto_reduce
        total = HomologyResult()
        for piece in auto_reduce(mf)[0]:
            if piece.rows:
                total = total + _explicit_homology(piece.normalized_rows())
            else:
                total = total + _summand_homology(piece)
        return total


def _explicit_homology(mf):
    base = mf.base
    monos = base.basis_monomials(mf.ambient_variables())
    exp = mf.to_explicit()

    basis0 = _module_basis(monos, exp.gens0)
    basis1 = _module_basis(monos, exp.gens1)
    index1 = {key: i for i, (key, _) in enumerate(basis1)}
    index0 = {key: i for i, (key, _) in enumerate(basis0)}

    cols0 = _map_columns(exp.d0, base, basis0, index1)  # M0 -> M1
    cols1 = _map_columns(exp.d1, base, basis1, index0)  # M1 -> M0

    p0 = _graded_kernel_minus_image(basis0, cols0, basis1, cols1)
    p1 = _graded_kernel_minus_image(basis1, cols1, basis0, cols0)
    return HomologyResult(p0, p1)


def _module_basis(monos, gens):
    """Basis vectors ((mono, gen index), degree) of a free graded module."""
    out = []
    for j, gdeg in enumerate(gens):
        for mono in monos:
            out.append(((mono, j), mono_degree(mono) + gdeg))
    return out


def _map_columns(mat, base, src_basis, tgt_index):
    """Per source basis vector: the image as {target row: Fraction}."""
    nf = base.normal_form
    columns = []
    for (mono, j), _ in src_basis:
        m = Poly({mono: Fraction(1)})
        col = {}
        for (i, jj), entry in mat.entries.items():
            if jj != j:
                continue
            image = nf(entry * m)
            for tmono, coeff in image.terms.items():
                row = tgt_index[(tmono, i)]
                col[row] = col.get(row, Fraction(0)) + coeff
        columns.append({r: c for r, c in col.items() if c})
    return columns


def _graded_kernel_minus_image(basis_src, cols_out, basis_in, cols_in):
    """Poincare series of ker(out) / im(in), degree by degree."""
    degrees = sorted({deg for _, deg in basis_src})
    out = LaurentPoly()
    for t in degrees:
        dim_t = sum(1 for _, deg in basis_src if deg == t)
        rank_out = _rank_at(cols_out, basis_src, basis_in, t, source=True)
        rank_in = _rank_at(cols_in, basis_in, basis_src, t, source=False)
        h = dim_t - rank_out - rank_in
        if h:
            out = out + LaurentPoly({t: h})
    return out


def _rank_at(cols, src_basis, tgt_basis, t, source):
    """Rank of the map restricted by degree: columns of source degree t
    (source=True) or columns whose image lands in degree t (source=False)."""
    picked = []
    for j, col in enumerate(cols):
        if not col:
            continue
        if source:
            if src_basis[j][1] == t:
                picked.append(col)
        else:
            tdeg = tgt_basis[next(iter(col))][1]
            if tdeg == t:
                picked.append(col)
    return len(echelon(picked))
