"""swissfrancs: exact candidate enumeration, numerical solvers and a
verification suite for the 100 Swiss Francs matrix-likelihood problem."""

from .core import (Convention, ConvergenceError, FeasibilityError,
                   ProbMatrix, RankTwoError, WeightTable, convert_convention,
                   exact_likelihood, log_likelihood, swiss_counts)
from .ranktwo import (RankTwoPoint, canonicalize, normalize_margins,
                      reciprocal_residual_exact, stationarity_residual,
                      to_matrix)
from .solvers import (LatentClassModel, MultistartResult, SolveReport,
                      SolverConfig, classify_stationary, em_fit,
                      em_multistart, multistart, newton_stationary)
from .candidates import (Candidate, SignPattern, block_matrix, block_point,
                         corner_matrix, corner_point, enumerate_n4,
                         global_candidate)
from .verify import (Certificate, certify, f1_eval, f3_eval, f3_region_scan,
                     f_polynomial, lemma_a2_factorization, sign_order_check,
                     tail_pair_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
