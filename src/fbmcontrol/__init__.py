"""Desk-scale verification of the stochastic maximum principle for control
systems driven by mixed fractional Brownian motion (Hurst H > 1/2)."""

from .errors import (BlowupError, DomainError, FactorizationError,
                     GridMismatchError, RegressionError, UnsupportedModelError,
                     UnsupportedRegimeError)
from .fbm import (Hurst, PathSet, TimeGrid, coarsen, fbm_covariance,
                  fbm_from_cholesky, fbm_from_kernel, generate_bm, kappa_h,
                  kernel_weights, kernel_z_closed)
from .transforms import (GridFunction, gamma_star, isometry_check, phi_norm_sq,
                         transfer_check)
from .sde import (CoefficientModel, ControlProcess, StatePath, euler_mixed,
                  fundamental_phi, fundamental_psi, lemma1_experiment,
                  linearize, variation_direct, variation_explicit)
from .adjoint import (AdjointEstimate, AdjointProblem, adjoint_problem,
                      bsde_residual, estimate_p, estimate_q_bump,
                      estimate_q_formula, stationarity_residual)
from .lq import (LqSpec, PicardOptions, convexity_check, lq_adjoint_problem,
                 lq_cost, lq_model, lq_picard_solve, optimality_sweep,
                 random_adapted_directions, riccati_oracle)

__version__ = "0.1.0"
