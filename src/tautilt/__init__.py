"""Exact computation of support tau-tilting pairs over bound quiver algebras.

The engine works over the rationals (or a prime field for the
brute-force oracle), with no floating point anywhere.  It computes
Auslander-Reiten translates, rigidity tests, Bongartz and minimum
completions, mutations, and the full Hasse quiver of support tau-tilting
pairs; completions and mutations run on the equivalent two-term silting
side.
"""

from .algebra import (AdmissibilityError, AlgebraError, AlgebraFileError,
                      BoundQuiverAlgebra, QuiverSpec, parse_algebra)
from .fields import QQ, parse_field
from .linalg import ExactMatrix
from .modrep import (DecompositionError, Representation, decompose,
                     direct_sum, hom_space, minimal_projective_presentation,
                     modules_isomorphic, standard_module, tau, zero_rep)
from .oracle import (OracleConfig, OracleError, brute_force_indecomposables,
                     brute_force_sttilt, oracle_graph_json)
from .sttilt import (FinitenessResult, HasseGraph, InvariantViolation,
                     NotTauRigidError, TauRigidPair, bongartz_completion,
                     enumerate_sttilt, is_classical_tilting,
                     is_tau_rigid_pair, is_tau_tilting_finite,
                     minimal_completion, mutate, pair_from_module_data,
                     pairs_isomorphic)
from .twoterm import (TwoTermComplex, complexes_isomorphic, decompose_complex,
                      g_vector, hom_homotopy, pair_to_complex,
                      strip_contractible)

__version__ = "0.1.0"
