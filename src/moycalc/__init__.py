"""
moycalc: matrix factorizations for planar trivalent diagrams.

Build the Koszul factorization a diagram determines, reduce it by
excluding internal variables, read off graded homology, and evaluate
closed diagrams to Laurent polynomials in q.
"""

from .poly import Poly, NonExactDivision, exact_div
from .quotient import QuotientRing, TriangularityViolation, InfiniteDimension
from .laurent import LaurentPoly, quantum_integer
from .symm import (ReductionFailed, jacobi_algebra, pi_poly,
                   power_sum_expand, uv_polys)
from .mf import (ExplicitMF, KoszulMF, KoszulRow, MFSum, NotAFactorization,
                 OddShift, ZeroScalar, koszul_new, verify_factorization)
from .reduce import (NotMonicInVariable, ReductionTrace, ResidualVariable,
                     VariableInPotential, auto_reduce, canonical_form,
                     exclude_variable, replay, scale_row, split_free_module)
from .diagram import (ArityMismatch, Diagram, DiagramError, DuplicateUse,
                      KindMismatch, OrientationMismatch, ParseError,
                      UnsupportedN, build_primitive, crossing_complex, glue,
                      parse_diagram)
from .homology import (HomologyResult, NonzeroPotential,
                       euler_characteristic, graded_homology)
from .moybracket import MOYGraph, StuckGraph, bracket

__all__ = [name for name in dir() if not name.startswith("_")]
