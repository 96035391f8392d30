"""Exact computation of support tau-tilting pairs over bound quiver algebras.

The engine works over the rationals (or a prime field for the
brute-force oracle), with no floating point anywhere.  It computes
Auslander-Reiten translates, rigidity tests, Bongartz and minimum
completions, mutations, and the full Hasse quiver of support tau-tilting
pairs, cross-validated against the equivalent two-term silting picture.
"""

from .algebra import (AdmissibilityError, AlgebraError, AlgebraFileError,
                      BoundQuiverAlgebra, QuiverSpec, parse_algebra,
                      path_basis)
from .fields import GF, QQ, parse_field
from .linalg import ExactMatrix
from .modrep import (DecompositionError, Representation, decompose,
                     direct_sum, ext1_dim, hom_space, in_fac,
                     minimal_projective_presentation, modules_isomorphic,
                     stable_hom_dim, standard_module, tau, zero_rep)
from .oracle import (OracleConfig, OracleError, brute_force_indecomposables,
                     brute_force_sttilt, oracle_graph_json)
from .sttilt import (FinitenessResult, HasseGraph, InvariantViolation,
                     NotTauRigidError, TauRigidPair, bongartz_completion,
                     enumerate_sttilt, is_classical_tilting,
                     is_tau_rigid_pair, is_tau_tilting_finite, leq,
                     minimal_completion, mutate, pair_from_module_data,
                     pairs_isomorphic, silting_leq)
from .twoterm import (TwoTermComplex, complex_to_pair, complexes_isomorphic,
                      cone_two_term, decompose_complex, g_vector,
                      hom_homotopy, is_presilting, is_two_term_silting,
                      minimal_left_approximation, pair_to_complex,
                      strip_contractible)

__version__ = "0.1.0"
