"""Exact computations in graded Lie algebras: Lyndon bases, derivation
algebras, the stable derivation algebra with its degree-12 congruence,
dimension tables for weighted completions, and truncated unipotent
groups.  All arithmetic is exact (integers and rationals)."""

from .errors import (AlphabetMismatchError, AtomicWordError,
                     ClassMismatchError, DegenerateLeadingTermError,
                     FallbackLimitError, GrtError, InhomogeneousError,
                     LieSyntaxError, NotALiePolynomialError,
                     NotOneDimensionalError, PreconditionError,
                     SpecialConditionError, UnknownGeneratorError,
                     UnsupportedFamilyError)
from .words import (GradedAlphabet, LyndonWord, all_words, is_lyndon,
                    lyndon_words, standard_factorization, tate_weight,
                    weighted_witt_dims, witt_dim)
from .lie import (AssocPoly, LieElement, bracket, expand_assoc,
                  from_coordinates, lie_to_string, project_lyndon,
                  substitute)
from .parsing import parse_lie
from .linalg import (in_row_space, kernel_basis, kernel_dim, kernel_dim_mod,
                     quotient_invariants, rank, rank_mod, reduced_echelon,
                     smith_normal_form)
from .derivations import (Derivation, XY, X, Y, der_bracket,
                          derivation_from_coordinates,
                          derivation_space_dim, inner, inner_matrix,
                          outder_dim)
from .ihara import (check_congruence, five_cycle_budget, five_cycle_route,
                    freeness_table, ihara_bracket, is_stable,
                    soule_generator, special_basis, special_dim,
                    special_dim_mod, special_witness, stable_derivation)
from .motivic import (NumberFieldProfile, RATIONAL_PROFILE, dn, ext_dim,
                      image_model_dims, k_graded_dims)
from .malcev import (FreeGroup, LatticeTimesCyclic, NilpotentElement,
                     SubgroupOfNilpotent, bch, filtration_report,
                     group_commutator, inverse, universal_bch,
                     word_to_group)

__version__ = "0.1.0"
