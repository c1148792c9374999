"""Exact-arithmetic toolkit for low-dimensional Lie superalgebras, Manin
supertriples and Drinfel'd superdoubles."""

from .scalars import Domain, ParamContext, Scalar, arith, is_zero, substitute
from .algebra import (AutomorphismFamily, CommutantFingerprint, Grading,
                      SuperAlgebra, check_antisymmetry, check_jacobi,
                      commutant_series, is_automorphism)
from .forms import BilinearForm, canonical_form, check_ad_invariance
from .triples import (DoubleAlgebra, ManinTriple, build_double,
                      check_compatibility, t_dual)
from .iso import (Exhausted, IsoCertificate, NoSolution, from_automorphism,
                  search_iso, solve_r, t_dual_certificate, verify_certificate)
from .catalog import (appendix_certificate, automorphisms, catalog,
                      catalog_triple, table_rows)
from .classify import (DualAnsatz, classify_doubles, enumerate_duals,
                       reduce_orbits, report)

__version__ = "0.1.0"
